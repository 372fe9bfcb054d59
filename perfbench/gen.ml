(* Seeded synthetic traffic for the sensor benchmark, with its alert oracle.

   Every workload is a fixed number of calls and attacks; the seed only
   draws identifiers (Call-IDs, tags, branches, SSRCs, media ports) and
   timing jitter.  Counts being seed-independent is what lets runs on
   different seeds be compared as repeats of one experiment.

   Every host is a dotted quad so the capture round-trips through the
   pcap writer and reader unchanged.  Each call owns its own UA hosts,
   request-URI and media addresses: benign churn toward one URI trips
   the INVITE-flood detector, and a media address reused after its
   stream went dormant reads as a foreign-SSRC spam injection. *)

type workload = Call_churn | Media_steady | Hostile_prevent

let workloads =
  [ ("call-churn", Call_churn); ("media-steady", Media_steady); ("hostile-prevent", Hostile_prevent) ]

let workload_of_string s = List.assoc_opt s workloads

type t = {
  records : Vids.Trace.record array;  (** Chronological. *)
  benign : bool array;  (** Per record: sent by a legitimate party. *)
  oracle : (Vids.Alert.kind * string) list;
      (** Every distinct (kind, subject) alert the run must raise, and no
          other; sorted. *)
  malformed : int;  (** Records deliberately unparsable. *)
  peak : int;  (** Retained heap is measured after this many records. *)
  enforce : bool;  (** Replay through the prevention gate. *)
}

(* ------------------------------------------------------------------ *)
(* Wire messages                                                       *)
(* ------------------------------------------------------------------ *)

let addr = Dsim.Addr.v
let sip_at host = addr host 5060
let hex rng = Printf.sprintf "%08Lx" (Int64.logand (Dsim.Rng.bits64 rng) 0xffffffffL)
let media_port rng = 16384 + (2 * Dsim.Rng.int rng 8191)

(* Call [i]'s own hosts: 10.<side>.<i / 250>.<i mod 250 + 1>. *)
let ua_host ~side i = Printf.sprintf "10.%d.%d.%d" side (i / 250) ((i mod 250) + 1)

type party = { host : string; user : string; tag : string; media : Dsim.Addr.t }

type dialog = { call_id : string; branch : string; caller : party; callee : party }

let new_dialog rng i =
  let party side user =
    let host = ua_host ~side i in
    { host; user = Printf.sprintf "%s%d" user i; tag = hex rng; media = addr host (media_port rng) }
  in
  let call_id = hex rng ^ hex rng ^ "@" ^ ua_host ~side:1 i in
  { call_id; branch = "z9hG4bK" ^ hex rng; caller = party 1 "u"; callee = party 2 "x" }

let sdp (p : party) =
  Printf.sprintf
    "v=0\r\no=- %d 0 IN IP4 %s\r\ns=-\r\nc=IN IP4 %s\r\nt=0 0\r\nm=audio %d RTP/AVP 18\r\n"
    (Dsim.Addr.port p.media) p.host p.host (Dsim.Addr.port p.media)

let with_body headers body =
  if body = "" then headers ^ "Content-Length: 0\r\n\r\n"
  else
    Printf.sprintf "%sContent-Type: application/sdp\r\nContent-Length: %d\r\n\r\n%s" headers
      (String.length body) body

let invite d =
  with_body
    (Printf.sprintf
       "INVITE sip:%s@%s SIP/2.0\r\nVia: SIP/2.0/UDP %s:5060;branch=%s\r\n\
        From: <sip:%s@a.example>;tag=%s\r\nTo: <sip:%s@b.example>\r\nCall-ID: %s\r\n\
        CSeq: 1 INVITE\r\nContact: <sip:%s@%s:5060>\r\n"
       d.callee.user d.callee.host d.caller.host d.branch d.caller.user d.caller.tag d.callee.user
       d.call_id d.caller.user d.caller.host)
    (sdp d.caller)

let response d ~code ~reason ~cseq ~body =
  with_body
    (Printf.sprintf
       "SIP/2.0 %d %s\r\nVia: SIP/2.0/UDP %s:5060;branch=%s\r\n\
        From: <sip:%s@a.example>;tag=%s\r\nTo: <sip:%s@b.example>;tag=%s\r\nCall-ID: %s\r\n\
        CSeq: %s\r\nContact: <sip:%s@%s:5060>\r\n"
       code reason d.caller.host d.branch d.caller.user d.caller.tag d.callee.user d.callee.tag
       d.call_id cseq d.callee.user d.callee.host)
    body

(* An in-dialog request from the caller's side; [from_tag] lets a forger
   claim another identity. *)
let in_dialog d ~meth ~cseq ~branch ~via_host ~from_tag =
  Printf.sprintf
    "%s sip:%s@%s SIP/2.0\r\nVia: SIP/2.0/UDP %s:5060;branch=%s\r\n\
     From: <sip:%s@a.example>;tag=%s\r\nTo: <sip:%s@b.example>;tag=%s\r\nCall-ID: %s\r\n\
     CSeq: %d %s\r\nContent-Length: 0\r\n\r\n"
    meth d.callee.user d.callee.host via_host branch d.caller.user from_tag d.callee.user
    d.callee.tag d.call_id cseq meth

let cancel d ~via_host =
  Printf.sprintf
    "CANCEL sip:%s@%s SIP/2.0\r\nVia: SIP/2.0/UDP %s:5060;branch=%s\r\n\
     From: <sip:%s@a.example>;tag=%s\r\nTo: <sip:%s@b.example>\r\nCall-ID: %s\r\n\
     CSeq: 1 CANCEL\r\nContent-Length: 0\r\n\r\n"
    d.callee.user d.callee.host via_host d.branch d.caller.user d.caller.tag d.callee.user d.call_id

let g729_frame = String.make 20 '\x5a'

type stream = { ssrc : int32; seq0 : int; ts0 : int; mutable sent : int }

let new_stream rng =
  {
    ssrc = Int64.to_int32 (Dsim.Rng.bits64 rng);
    seq0 = Dsim.Rng.int rng 65536;
    ts0 = Dsim.Rng.int rng 0x3fffffff;
    sent = 0;
  }

(* The next G.729 packet of a stream: 20 ms of audio, 160 clock ticks. *)
let rtp s =
  let k = s.sent in
  s.sent <- k + 1;
  Rtp.Rtp_packet.encode
    (Rtp.Rtp_packet.make ~payload_type:18 ~sequence:((s.seq0 + k) land 0xffff)
       ~timestamp:(Int32.of_int (s.ts0 + (160 * k)))
       ~ssrc:s.ssrc g729_frame)

(* ------------------------------------------------------------------ *)
(* Trace assembly                                                      *)
(* ------------------------------------------------------------------ *)

type script = {
  rng : Dsim.Rng.t;
  mutable items : (int * int * Vids.Trace.record * bool) list;  (* at_us, order, record, benign *)
  mutable n : int;
  mutable expect : (Vids.Alert.kind * string) list;
  mutable bad : int;
  mutable next_call : int;
}

let emit ?(benign = true) b ~at src dst payload =
  let us = int_of_float (at *. 1e6) in
  b.items <- (us, b.n, { Vids.Trace.at = Dsim.Time.of_us us; src; dst; payload }, benign) :: b.items;
  b.n <- b.n + 1

let expect b kind subject = b.expect <- (kind, subject) :: b.expect
let ms x = x /. 1000.
let jitter b lo hi = Dsim.Rng.uniform b.rng (ms lo) (ms hi)

let fresh_dialog b =
  let i = b.next_call in
  b.next_call <- i + 1;
  new_dialog b.rng i

(* One DNS lookup from the caller's host: the non-VoIP UDP a real tap
   also carries (the classifier's [Other] path). *)
let dns b ~at (d : dialog) =
  emit b ~at
    (addr d.caller.host (40000 + Dsim.Rng.int b.rng 20000))
    (addr "10.0.0.53" 53)
    ("\x12\x34\x01\x00\x00\x01" ^ hex b.rng ^ ".b.example")

(* INVITE → 180 → 200 (SDP answer) → ACK; returns the ACK time. *)
let setup b ~at d =
  let caller = sip_at d.caller.host and callee = sip_at d.callee.host in
  emit b ~at caller callee (invite d);
  emit b ~at:(at +. jitter b 10. 40.) callee caller
    (response d ~code:180 ~reason:"Ringing" ~cseq:"1 INVITE" ~body:"");
  let answered = at +. jitter b 60. 200. in
  emit b ~at:answered callee caller
    (response d ~code:200 ~reason:"OK" ~cseq:"1 INVITE" ~body:(sdp d.callee));
  let acked = answered +. ms 20. in
  emit b ~at:acked caller callee
    (in_dialog d ~meth:"ACK" ~cseq:1 ~branch:("z9hG4bK" ^ hex b.rng) ~via_host:d.caller.host
       ~from_tag:d.caller.tag);
  acked

(* [n] packets each way at 50 pps from [at]; returns the time after the
   last one. *)
let talk b ~at ~n d (up, down) =
  for k = 0 to n - 1 do
    let t = at +. (0.02 *. float_of_int k) in
    emit b ~at:t d.caller.media d.callee.media (rtp up);
    emit b ~at:(t +. ms 10.) d.callee.media d.caller.media (rtp down)
  done;
  at +. (0.02 *. float_of_int n)

let caller_bye b ~at d =
  let caller = sip_at d.caller.host and callee = sip_at d.callee.host in
  emit b ~at caller callee
    (in_dialog d ~meth:"BYE" ~cseq:2 ~branch:("z9hG4bK" ^ hex b.rng) ~via_host:d.caller.host
       ~from_tag:d.caller.tag);
  emit b ~at:(at +. ms 20.) callee caller (response d ~code:200 ~reason:"OK" ~cseq:"2 BYE" ~body:"")

(* A complete short call: DNS, setup, [n] packets each way, caller BYE. *)
let benign_call b ~at ~n =
  let d = fresh_dialog b in
  dns b ~at:(at -. ms 2.) d;
  let acked = setup b ~at d in
  let streams = (new_stream b.rng, new_stream b.rng) in
  let ended = talk b ~at:(acked +. ms 20.) ~n d streams in
  caller_bye b ~at:(ended +. jitter b 100. 500.) d

(* Caller keeps streaming toward the callee for [secs] after [at]. *)
let keep_streaming b ~at ~secs ~benign d up =
  let n = int_of_float (secs /. 0.02) in
  for k = 0 to n - 1 do
    emit ~benign b ~at:(at +. (0.02 *. float_of_int k)) d.caller.media d.callee.media (rtp up)
  done

(* ------------------------------------------------------------------ *)
(* Paper §3 attacks, one instance each; [i] keeps attacker hosts unique *)
(* ------------------------------------------------------------------ *)

(* INVITEs with fresh Call-IDs toward one request-URI, 50/s: the flood
   detector's threshold is 6 per second. *)
let invite_flood b ~at i =
  let atk = Printf.sprintf "203.0.113.%d" (i + 1) in
  let user = "ivr" ^ hex b.rng and host = Printf.sprintf "pbx%d.b.example" i in
  let victim = sip_at (Printf.sprintf "10.3.0.%d" (i + 1)) in
  for k = 0 to 19 do
    let call_id = hex b.rng ^ "@" ^ atk in
    emit ~benign:false b
      ~at:(at +. (0.02 *. float_of_int k))
      (sip_at atk) victim
      (Printf.sprintf
         "INVITE sip:%s@%s SIP/2.0\r\nVia: SIP/2.0/UDP %s:5060;branch=z9hG4bK%s\r\n\
          From: <sip:m@%s>;tag=%s\r\nTo: <sip:%s@%s>\r\nCall-ID: %s\r\nCSeq: 1 INVITE\r\n\
          Contact: <sip:m@%s:5060>\r\nContent-Length: 0\r\n\r\n"
         user host atk (hex b.rng) atk (hex b.rng) user host call_id atk)
  done;
  expect b Vids.Alert.Invite_flood (Printf.sprintf "dst:%s@%s" user host)

(* Unsolicited responses from 40 distinct reflectors within 1 s: the
   DRDoS detector's threshold is 30 per 10 s. *)
let drdos b ~at i =
  let victim = Printf.sprintf "10.9.0.%d" (i + 1) in
  for k = 0 to 39 do
    let refl = Printf.sprintf "100.64.%d.%d" i (k + 1) in
    emit ~benign:false b
      ~at:(at +. (0.025 *. float_of_int k))
      (sip_at refl) (sip_at victim)
      (Printf.sprintf
         "SIP/2.0 200 OK\r\nVia: SIP/2.0/UDP %s:5060;branch=z9hG4bK%s\r\n\
          From: <sip:v@%s>;tag=%s\r\nTo: <sip:r@%s>;tag=%s\r\nCall-ID: %s@%s\r\n\
          CSeq: 1 OPTIONS\r\nContent-Length: 0\r\n\r\n"
         victim (hex b.rng) victim (hex b.rng) refl (hex b.rng) (hex b.rng) refl)
  done;
  expect b Vids.Alert.Drdos ("victim:" ^ victim)

(* In-order RTP at 300 pps for 1 s from the attacker's own SSRC: the
   flood threshold is 150 per stream per second. *)
let rtp_flood b ~at i =
  let src = addr (Printf.sprintf "198.51.100.%d" (i + 1)) (media_port b.rng) in
  let dst = addr (Printf.sprintf "10.8.0.%d" (i + 1)) (media_port b.rng) in
  let s = new_stream b.rng in
  for k = 0 to 299 do
    emit ~benign:false b ~at:(at +. (float_of_int k /. 300.)) src dst (rtp s)
  done;
  expect b Vids.Alert.Rtp_flood ("stream:" ^ Dsim.Addr.to_string dst)

(* Mid-call RTP toward the callee under a foreign SSRC. *)
let media_spam b ~at i =
  let d = fresh_dialog b in
  let acked = setup b ~at d in
  let streams = (new_stream b.rng, new_stream b.rng) in
  let mid = talk b ~at:(acked +. ms 20.) ~n:10 d streams in
  let atk = addr (Printf.sprintf "198.51.101.%d" (i + 1)) (media_port b.rng) in
  let s = new_stream b.rng in
  for k = 0 to 4 do
    emit ~benign:false b ~at:(mid +. ms (3. +. (20. *. float_of_int k))) atk d.callee.media (rtp s)
  done;
  let ended = talk b ~at:mid ~n:10 d streams in
  caller_bye b ~at:(ended +. ms 200.) d;
  expect b Vids.Alert.Media_spam ("stream:" ^ Dsim.Addr.to_string d.callee.media)

(* A BYE forged from a third-party host in the caller's name; the real
   caller never learns of it and keeps streaming past the grace timer. *)
let bye_dos b ~at i =
  let d = fresh_dialog b in
  let acked = setup b ~at d in
  let up, down = (new_stream b.rng, new_stream b.rng) in
  let mid = talk b ~at:(acked +. ms 20.) ~n:10 d (up, down) in
  let atk = sip_at (Printf.sprintf "198.51.102.%d" (i + 1)) in
  emit ~benign:false b ~at:mid atk (sip_at d.callee.host)
    (in_dialog d ~meth:"BYE" ~cseq:2 ~branch:("z9hG4bK" ^ hex b.rng)
       ~via_host:(Dsim.Addr.host atk) ~from_tag:d.caller.tag);
  emit b ~at:(mid +. ms 20.) (sip_at d.callee.host) atk
    (response d ~code:200 ~reason:"OK" ~cseq:"2 BYE" ~body:"");
  keep_streaming b ~at:(mid +. ms 10.) ~secs:1.0 ~benign:true d up;
  expect b Vids.Alert.Bye_dos d.call_id

(* A third-party CANCEL while the callee rings. *)
let cancel_dos b ~at i =
  let d = fresh_dialog b in
  let caller = sip_at d.caller.host and callee = sip_at d.callee.host in
  emit b ~at caller callee (invite d);
  let ringing = at +. jitter b 10. 40. in
  emit b ~at:ringing callee caller
    (response d ~code:180 ~reason:"Ringing" ~cseq:"1 INVITE" ~body:"");
  let atk = Printf.sprintf "198.51.103.%d" (i + 1) in
  emit ~benign:false b ~at:(ringing +. jitter b 100. 300.) (sip_at atk) callee
    (cancel d ~via_host:atk);
  expect b Vids.Alert.Cancel_dos d.call_id

(* An in-dialog re-INVITE from a host that is neither participant,
   carrying a foreign From tag. *)
let hijack b ~at i =
  let d = fresh_dialog b in
  let acked = setup b ~at d in
  let mid = talk b ~at:(acked +. ms 20.) ~n:5 d (new_stream b.rng, new_stream b.rng) in
  let atk = Printf.sprintf "198.51.104.%d" (i + 1) in
  emit ~benign:false b ~at:mid (sip_at atk) (sip_at d.callee.host)
    (in_dialog d ~meth:"INVITE" ~cseq:3 ~branch:("z9hG4bK" ^ hex b.rng) ~via_host:atk
       ~from_tag:(hex b.rng));
  expect b Vids.Alert.Call_hijack d.call_id

(* The caller hangs up genuinely, then keeps streaming: media it will not
   be billed for. *)
let billing_fraud b ~at _i =
  let d = fresh_dialog b in
  let acked = setup b ~at d in
  let up, down = (new_stream b.rng, new_stream b.rng) in
  let ended = talk b ~at:(acked +. ms 20.) ~n:10 d (up, down) in
  caller_bye b ~at:ended d;
  keep_streaming b ~at:(ended +. ms 30.) ~secs:1.0 ~benign:false d up;
  expect b Vids.Alert.Billing_fraud d.call_id

let malformed_sip b ~at i =
  let atk = sip_at (Printf.sprintf "198.51.105.%d" (i + 1)) in
  emit ~benign:false b ~at atk (sip_at "10.2.0.1") ("\x16\x03\x01\x00" ^ hex b.rng ^ " not SIP");
  b.bad <- b.bad + 1;
  expect b Vids.Alert.Spec_deviation (Dsim.Addr.to_string atk)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* 3400 calls, one every 12 ms on average, 3 packets each way: SIP is
   about half the records, and the 32 s closed-call linger keeps about
   2700 finished calls in the fact base at the end. *)
let call_churn b =
  let t = ref 0.5 in
  for _ = 1 to 3400 do
    t := !t +. jitter b 6. 18.;
    benign_call b ~at:!t ~n:3
  done

(* 1000 calls set up over the first second, then G.729 both ways at
   50 pps until 2 s: RTP is 97% of the records. *)
let media_steady b =
  let stop = 2.0 in
  for i = 0 to 999 do
    let at = 0.05 +. (0.001 *. float_of_int i) +. jitter b 0. 1. in
    let d = fresh_dialog b in
    if i mod 10 = 0 then dns b ~at:(at -. ms 1.) d;
    let acked = setup b ~at d in
    let first = acked +. jitter b 20. 40. in
    let n = int_of_float ((stop -. first) /. 0.02) in
    ignore (talk b ~at:first ~n d (new_stream b.rng, new_stream b.rng))
  done

(* Benign churn at one call per 40 ms for 40 s, with 84 attacks spread
   over it in a fixed rotation. *)
let hostile_prevent b =
  let t = ref 0.5 in
  for _ = 1 to 1000 do
    t := !t +. jitter b 20. 60.;
    benign_call b ~at:!t ~n:3
  done;
  let rotation =
    [|
      (invite_flood, 24); (drdos, 12); (rtp_flood, 12); (media_spam, 6); (bye_dos, 6);
      (cancel_dos, 6); (hijack, 6); (billing_fraud, 6); (malformed_sip, 6);
    |]
  in
  let used = Array.make (Array.length rotation) 0 in
  let total = Array.fold_left (fun acc (_, n) -> acc + n) 0 rotation in
  let k = ref 0 in
  while !k < total do
    Array.iteri
      (fun j (attack, n) ->
        if used.(j) < n then begin
          attack b ~at:(2.0 +. (36.0 *. float_of_int !k /. float_of_int total) +. jitter b 0. 200.)
            used.(j);
          used.(j) <- used.(j) + 1;
          incr k
        end)
      rotation
  done

let make workload ~seed =
  let b = { rng = Dsim.Rng.create seed; items = []; n = 0; expect = []; bad = 0; next_call = 0 } in
  (match workload with
  | Call_churn -> call_churn b
  | Media_steady -> media_steady b
  | Hostile_prevent -> hostile_prevent b);
  let items =
    List.sort (fun (a, i, _, _) (c, j, _, _) -> if a <> c then compare a c else compare i j) b.items
  in
  let records = Array.of_list (List.map (fun (_, _, r, _) -> r) items) in
  {
    records;
    benign = Array.of_list (List.map (fun (_, _, _, ok) -> ok) items);
    oracle = List.sort_uniq compare b.expect;
    malformed = b.bad;
    peak = Array.length records;
    enforce = workload = Hostile_prevent;
  }
