(* Recovery bench: checkpoint cost, recovery latency, divergence.

   Three questions, answered in BENCH_recovery.json:

   1. What does a checkpoint cost as the fact base grows?  (capture +
      serialize wall time and snapshot size at several occupancy levels)
   2. How long does recovery take?  (parse + restore + suffix replay wall
      time from several checkpoint cut points over the same trace)
   3. Does a recovered engine diverge from one that never crashed?  (the
      canonical digests must be byte-identical — the run fails otherwise,
      and so does CI)

   Scale comes from argv: [recovery.exe 400] caps the churn at 400 calls
   (the CI smoke preset); the default is 2000. *)

let ms = Dsim.Time.of_ms

let sip_addr host = Dsim.Addr.v host 5060

let invite ~call_id ~port =
  let body =
    Printf.sprintf
      "v=0\r\no=alice 0 0 IN IP4 10.1.0.10\r\ns=-\r\nc=IN IP4 10.1.0.10\r\nt=0 0\r\nm=audio %d RTP/AVP 18\r\n"
      port
  in
  Printf.sprintf
    "INVITE sip:bob@b.example SIP/2.0\r\n\
     Via: SIP/2.0/UDP 10.1.0.2:5060;branch=z9hG4bK%s\r\n\
     From: <sip:alice@a.example>;tag=ta-%s\r\n\
     To: <sip:bob@b.example>\r\n\
     Call-ID: %s\r\n\
     CSeq: 1 INVITE\r\n\
     Contact: <sip:alice@10.1.0.10:5060>\r\n\
     Content-Type: application/sdp\r\n\
     Content-Length: %d\r\n\r\n%s"
    call_id call_id call_id (String.length body) body

let response ~call_id ~code ~cseq ~sdp ~port =
  let body =
    if sdp then
      Printf.sprintf
        "v=0\r\no=bob 0 0 IN IP4 10.2.0.10\r\ns=-\r\nc=IN IP4 10.2.0.10\r\nt=0 0\r\nm=audio %d RTP/AVP 18\r\n"
        port
    else ""
  in
  Printf.sprintf
    "SIP/2.0 %d X\r\nVia: SIP/2.0/UDP 10.1.0.2:5060;branch=z9hG4bK%s\r\nFrom: <sip:alice@a.example>;tag=ta-%s\r\nTo: <sip:bob@b.example>;tag=tb-%s\r\nCall-ID: %s\r\nCSeq: %s\r\n%sContent-Length: %d\r\n\r\n%s"
    code call_id call_id call_id call_id cseq
    (if sdp then "Content-Type: application/sdp\r\n" else "")
    (String.length body) body

let ack ~call_id =
  Printf.sprintf
    "ACK sip:bob@10.2.0.10 SIP/2.0\r\nVia: SIP/2.0/UDP 10.1.0.10:5060;branch=z9hG4bKa-%s\r\nFrom: <sip:alice@a.example>;tag=ta-%s\r\nTo: <sip:bob@b.example>;tag=tb-%s\r\nCall-ID: %s\r\nCSeq: 1 ACK\r\n\r\n"
    call_id call_id call_id call_id

let bye ~call_id =
  Printf.sprintf
    "BYE sip:bob@10.2.0.10 SIP/2.0\r\nVia: SIP/2.0/UDP 10.1.0.10:5060;branch=z9hG4bKb-%s\r\nFrom: <sip:alice@a.example>;tag=ta-%s\r\nTo: <sip:bob@b.example>;tag=tb-%s\r\nCall-ID: %s\r\nCSeq: 2 BYE\r\n\r\n"
    call_id call_id call_id call_id

let rtp_bytes ~seq =
  Rtp.Rtp_packet.encode
    (Rtp.Rtp_packet.make ~payload_type:18 ~sequence:seq ~timestamp:(Int32.of_int (160 * seq))
       ~ssrc:77l (String.make 20 'v'))

(* A dialog-rich trace: every 50 ms a new call starts.  Two in three run a
   full dialog with a short media burst; one in three is abandoned after
   the INVITE (machines parked mid-state, exactly what a checkpoint must
   carry).  One in five established calls never sends BYE, so the fact
   base keeps live calls with armed timers at every cut point. *)
let make_trace ~calls =
  let records = ref [] in
  let add at src dst payload = records := { Vids.Trace.at; src; dst; payload } :: !records in
  let a_sig = sip_addr "10.1.0.2" and b_sig = sip_addr "10.2.0.2" in
  for i = 0 to calls - 1 do
    let call_id = Printf.sprintf "bench-%d" i in
    let t0 = ms (float_of_int (50 * i)) in
    let port = 16384 + (2 * (i mod 2048)) in
    let ( +& ) a b = Dsim.Time.add a b in
    add t0 a_sig b_sig (invite ~call_id ~port);
    if i mod 3 <> 2 then begin
      add (t0 +& ms 20.) b_sig a_sig (response ~call_id ~code:180 ~cseq:"1 INVITE" ~sdp:false ~port);
      add (t0 +& ms 40.) b_sig a_sig (response ~call_id ~code:200 ~cseq:"1 INVITE" ~sdp:true ~port);
      add (t0 +& ms 60.) a_sig b_sig (ack ~call_id);
      let media_src = Dsim.Addr.v "10.1.0.10" port in
      let media_dst = Dsim.Addr.v "10.2.0.10" port in
      for s = 0 to 4 do
        add (t0 +& ms (80. +. (20. *. float_of_int s))) media_src media_dst (rtp_bytes ~seq:s)
      done;
      if i mod 5 <> 4 then begin
        add (t0 +& ms 600.) a_sig b_sig (bye ~call_id);
        add (t0 +& ms 620.) b_sig a_sig (response ~call_id ~code:200 ~cseq:"2 BYE" ~sdp:false ~port)
      end
    end
  done;
  List.rev !records

(* ------------------------------------------------------------------ *)
(* 1. Checkpoint cost vs fact-base occupancy                           *)
(* ------------------------------------------------------------------ *)

type cost = {
  occupancy : int;
  snapshot_bytes : int;
  capture_s : float;
  parse_restore_s : float;
}

let checkpoint_cost ~calls =
  let trace = make_trace ~calls in
  let horizon = ms (float_of_int ((50 * calls) + 700)) in
  let sched, engine = Vids.Trace.replay ~until:horizon trace in
  let at = Dsim.Scheduler.now sched in
  let text, capture_s =
    Bench_common.timed (fun () ->
        Vids.Snapshot.to_string (Vids.Snapshot.capture ~seq:1 ~at engine))
  in
  let parse_restore_s =
    Bench_common.time (fun () ->
        let reparsed =
          match Vids.Snapshot.of_string text with
          | Ok s -> s
          | Error e -> failwith ("snapshot reparse failed: " ^ e)
        in
        match Vids.Snapshot.restore reparsed with
        | Ok _ -> ()
        | Error e -> failwith ("snapshot restore failed: " ^ e))
  in
  let stats = Vids.Engine.memory_stats engine in
  {
    occupancy = stats.Vids.Fact_base.active_calls + stats.Vids.Fact_base.detectors;
    snapshot_bytes = String.length text;
    capture_s;
    parse_restore_s;
  }

(* ------------------------------------------------------------------ *)
(* 2 + 3. Recovery latency and divergence                              *)
(* ------------------------------------------------------------------ *)

type recovery_run = {
  label : string;
  cut_s : float;
  replayed : int;
  recover_s : float;
  divergent : bool;
}

let recovery_run ~label ~config ~trace ~horizon ~cut =
  let _, straight = Vids.Trace.replay ?config ~until:horizon trace in
  let reference = Vids.Snapshot.digest ~at:horizon straight in
  let sched, engine = Vids.Trace.replay ?config ~until:cut trace in
  let snap = Vids.Snapshot.capture ~seq:1 ~at:(Dsim.Scheduler.now sched) engine in
  let snap =
    match Vids.Snapshot.of_string (Vids.Snapshot.to_string snap) with
    | Ok s -> s
    | Error e -> failwith ("checkpoint round-trip failed: " ^ e)
  in
  let recovered_result, recover_s =
    Bench_common.timed (fun () -> Vids.Recovery.recover ?config ~trace ~until:horizon snap)
  in
  match recovered_result with
  | Error e -> failwith ("recovery failed: " ^ e)
  | Ok outcome ->
      let recovered = Vids.Snapshot.digest ~at:horizon outcome.Vids.Recovery.engine in
      {
        label;
        cut_s = Dsim.Time.to_sec cut;
        replayed = outcome.Vids.Recovery.replayed;
        recover_s;
        divergent = not (String.equal recovered reference);
      }

(* ------------------------------------------------------------------ *)

let json_of_cost c =
  Printf.sprintf
    "    {\"occupancy\": %d, \"snapshot_bytes\": %d, \"capture_s\": %.6f, \"parse_restore_s\": %.6f}"
    c.occupancy c.snapshot_bytes c.capture_s c.parse_restore_s

let json_of_recovery r =
  Printf.sprintf
    "    {\"scenario\": %S, \"cut_s\": %.3f, \"replayed\": %d, \"recover_s\": %.6f, \"divergent\": %b}"
    r.label r.cut_s r.replayed r.recover_s r.divergent

let () =
  let n = try int_of_string Sys.argv.(1) with _ -> 2000 in
  let sizes = List.sort_uniq compare [ max 1 (n / 8); max 1 (n / 4); max 1 (n / 2); n ] in
  let costs = List.map (fun calls -> checkpoint_cost ~calls) sizes in
  List.iter
    (fun c ->
      Printf.printf "checkpoint @ %4d records: %7d B, capture %.2f ms, restore %.2f ms\n"
        c.occupancy c.snapshot_bytes (1000. *. c.capture_s) (1000. *. c.parse_restore_s))
    costs;
  (* Divergence over a fixed 120-call trace from several cut points, under
     both the default and the governed preset (caps, sweep timer armed). *)
  let calls = min 120 (max 20 (n / 10)) in
  let trace = make_trace ~calls in
  let horizon = ms (float_of_int ((50 * calls) + 700)) in
  let fraction f = Dsim.Time.of_us (int_of_float (f *. float_of_int (Dsim.Time.to_us horizon))) in
  let cuts = [ fraction 0.25; fraction 0.5; fraction 0.75; Dsim.Time.sub horizon (ms 100.) ] in
  let runs =
    List.concat_map
      (fun cut ->
        [
          recovery_run ~label:"default" ~config:None ~trace ~horizon ~cut;
          recovery_run ~label:"governed"
            ~config:(Some (Vids.Config.governed Vids.Config.default))
            ~trace ~horizon ~cut;
        ])
      cuts
  in
  List.iter
    (fun r ->
      Printf.printf "recovery (%s) cut=%.1fs: replayed %d packets in %.2f ms, divergent=%b\n"
        r.label r.cut_s r.replayed (1000. *. r.recover_s) r.divergent)
    runs;
  let divergence_zero = List.for_all (fun r -> not r.divergent) runs in
  Printf.printf "post-recovery divergence zero: %b\n" divergence_zero;
  Bench_common.write_json ~path:"BENCH_recovery.json"
    (Printf.sprintf
       "{\n\
       \  \"bench\": \"recovery\",\n\
       \  \"divergence_zero\": %b,\n\
       \  \"checkpoint_cost\": [\n%s\n  ],\n\
       \  \"recovery\": [\n%s\n  ]\n\
        }\n"
       divergence_zero
       (String.concat ",\n" (List.map json_of_cost costs))
       (String.concat ",\n" (List.map json_of_recovery runs)));
  if not divergence_zero then exit 1
