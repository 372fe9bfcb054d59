(* Crash-safety tests: snapshot/journal codecs (round-trip + fuzz), the
   recovery convergence property (checkpoint ∘ crash ∘ recover ≡ no-crash),
   and the supervisor's restart/backoff/standby accounting. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let tc name f = Alcotest.test_case name `Quick f

let q ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

let ms = Dsim.Time.of_ms
let sec = Dsim.Time.of_sec
let sip_addr host = Dsim.Addr.v host 5060

(* ------------------------------------------------------------------ *)
(* A dialog-rich scenario trace (mirrors bench/recovery.ml): full       *)
(* dialogs with media, abandoned INVITEs, calls left open — machines    *)
(* mid-state, armed timers and queued syncs at any cut point.           *)
(* ------------------------------------------------------------------ *)

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

let make_trace ~calls =
  let records = ref [] in
  let add at src dst payload = records := { Vids.Trace.at; src; dst; payload } :: !records in
  let a_sig = sip_addr "10.1.0.2" and b_sig = sip_addr "10.2.0.2" in
  for i = 0 to calls - 1 do
    let call_id = Printf.sprintf "rec-%d" i in
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
      for s = 0 to 3 do
        add (t0 +& ms (80. +. (20. *. float_of_int s))) media_src media_dst (rtp_bytes ~seq:s)
      done;
      if i mod 5 <> 4 then begin
        add (t0 +& ms 600.) a_sig b_sig (bye ~call_id);
        add (t0 +& ms 620.) b_sig a_sig (response ~call_id ~code:200 ~cseq:"2 BYE" ~sdp:false ~port)
      end
    end
  done;
  List.rev !records

let trace_horizon ~calls = ms (float_of_int ((50 * calls) + 700))

(* A sweep period chosen off the packet grid (multiples of 10 ms) so sweep
   firings never tie with packet arrivals. *)
let sweepy_config =
  { (Vids.Config.governed Vids.Config.default) with Vids.Config.sweep_interval = sec 7.3 }

(* ------------------------------------------------------------------ *)
(* Codec round-trips (qcheck)                                          *)
(* ------------------------------------------------------------------ *)

let any_byte = QCheck.Gen.(map Char.chr (int_range 0 255))
let bytes_gen = QCheck.Gen.(string_size ~gen:any_byte (int_range 0 48))

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Efsm.Value.Int i) int;
        map (fun s -> Efsm.Value.Str s) bytes_gen;
        map (fun b -> Efsm.Value.Bool b) bool;
        map (fun f -> Efsm.Value.Float f) float;
        map2 (fun h p -> Efsm.Value.Addr (h, p)) bytes_gen (int_range 0 65535);
        return Efsm.Value.Unset;
      ])

let value_arb = QCheck.make ~print:Efsm.Value.to_token value_gen

let value_token_roundtrip =
  q "value: of_token (to_token v) = v" value_arb (fun v ->
      match Efsm.Value.of_token (Efsm.Value.to_token v) with
      (* Compare via tokens so NaN floats (bit-exact round-trip, but
         NaN <> NaN) still count as equal. *)
      | Ok v' -> String.equal (Efsm.Value.to_token v') (Efsm.Value.to_token v)
      | Error _ -> false)

let host_gen =
  QCheck.Gen.(
    map
      (fun (a, b, c, d) -> Printf.sprintf "%d.%d.%d.%d" a b c d)
      (quad (int_range 0 255) (int_range 0 255) (int_range 0 255) (int_range 0 255)))

let trace_record_gen =
  QCheck.Gen.(
    map
      (fun (at, (sh, sp), (dh, dp), payload) ->
        {
          Vids.Trace.at = Dsim.Time.of_us at;
          src = Dsim.Addr.v sh sp;
          dst = Dsim.Addr.v dh dp;
          payload;
        })
      (quad (int_range 0 1_000_000_000)
         (pair host_gen (int_range 1 65535))
         (pair host_gen (int_range 1 65535))
         (string_size ~gen:any_byte (int_range 0 200))))

let trace_record_arb = QCheck.make ~print:Vids.Trace.record_to_line trace_record_gen

let trace_line_roundtrip =
  q "trace: record_of_line (record_to_line r) = r (arbitrary payload bytes)" trace_record_arb
    (fun r ->
      match Vids.Trace.record_of_line (Vids.Trace.record_to_line r) with
      | Ok r' -> r' = r
      | Error _ -> false)

let alert_gen =
  QCheck.Gen.(
    map
      (fun ((kind, severity, at), (subject, detail)) ->
        { Vids.Alert.kind; severity; at = Dsim.Time.of_us at; subject; detail })
      (pair
         (triple (oneofl Vids.Alert.all_kinds)
            (oneofl [ Vids.Alert.Info; Vids.Alert.Warning; Vids.Alert.Critical ])
            (int_range 0 1_000_000_000))
         (pair bytes_gen bytes_gen)))

let journal_entry_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun a -> Vids.Journal.Alert a) alert_gen;
        map
          (fun (at, subject, detail) ->
            Vids.Journal.Eviction { at = Dsim.Time.of_us at; subject; detail })
          (triple (int_range 0 1_000_000_000) bytes_gen bytes_gen);
        map
          (fun (at, seq) -> Vids.Journal.Checkpoint { at = Dsim.Time.of_us at; seq })
          (pair (int_range 0 1_000_000_000) (int_range 0 100_000));
      ])

let journal_entry_arb = QCheck.make ~print:Vids.Journal.entry_to_line journal_entry_gen

let journal_line_roundtrip =
  q "journal: entry_of_line (entry_to_line e) = e" journal_entry_arb (fun e ->
      match Vids.Journal.entry_of_line (Vids.Journal.entry_to_line e) with
      | Ok e' -> e' = e
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Snapshot round-trip on a real engine                                *)
(* ------------------------------------------------------------------ *)

let engine_at ~config ~calls cut =
  let trace = make_trace ~calls in
  Vids.Trace.replay_until ?config ~until:cut trace

let snapshot_text_roundtrip () =
  let sched, engine = engine_at ~config:None ~calls:12 (ms 450.) in
  let snap = Vids.Snapshot.capture ~seq:3 ~at:(Dsim.Scheduler.now sched) engine in
  let text = Vids.Snapshot.to_string snap in
  match Vids.Snapshot.of_string text with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok snap' ->
      Alcotest.(check string) "canonical text stable" text (Vids.Snapshot.to_string snap');
      check_int "seq preserved" 3 (Vids.Snapshot.seq snap');
      check "at preserved" true (Dsim.Time.equal (Vids.Snapshot.at snap') (ms 450.))

let snapshot_restore_digest () =
  let sched, engine = engine_at ~config:None ~calls:12 (ms 450.) in
  let at = Dsim.Scheduler.now sched in
  let original = Vids.Snapshot.digest ~at engine in
  let snap = Vids.Snapshot.capture ~seq:1 ~at engine in
  match Vids.Snapshot.restore snap with
  | Error e -> Alcotest.failf "restore failed: %s" e
  | Ok (sched', engine') ->
      check "clock restored" true (Dsim.Time.equal (Dsim.Scheduler.now sched') at);
      Alcotest.(check string) "restored digest equal" original
        (Vids.Snapshot.digest ~at engine')

(* Checkpoints written before the 14th EC field was reserved may carry a
   nonzero value there; they must still restore, and re-capture with 0. *)
let snapshot_reserved_ec_field () =
  let sched, engine = engine_at ~config:None ~calls:12 (ms 450.) in
  let at = Dsim.Scheduler.now sched in
  let text = Vids.Snapshot.to_string (Vids.Snapshot.capture ~seq:2 ~at engine) in
  let header_end = String.index text '\n' + 1 in
  let trailer_start = String.rindex_from text (String.length text - 2) '\n' + 1 in
  let body = String.sub text header_end (trailer_start - header_end) in
  let ec_fields = ref [] in
  let old_body =
    String.split_on_char '\n' body
    |> List.map (fun line ->
           match String.split_on_char ' ' line with
           | "EC" :: fields when List.length fields = 14 ->
               ec_fields := fields;
               String.concat " " ("EC" :: List.filteri (fun i _ -> i < 13) fields @ [ "7" ])
           | _ -> line)
    |> String.concat "\n"
  in
  Alcotest.(check string) "reserved field written as 0" "0" (List.nth !ec_fields 13);
  let old_text =
    String.sub text 0 header_end ^ old_body
    ^ Printf.sprintf "END %s %d\n" (Vids.Codec.crc32_hex old_body) (String.length old_body)
  in
  match Vids.Snapshot.of_string old_text with
  | Error e -> Alcotest.failf "old-format snapshot rejected: %s" e
  | Ok snap -> (
      match Vids.Snapshot.restore snap with
      | Error e -> Alcotest.failf "restore failed: %s" e
      | Ok (_, restored) ->
          Alcotest.(check string) "restored digest equal" (Vids.Snapshot.digest ~at engine)
            (Vids.Snapshot.digest ~at restored);
          Alcotest.(check string) "re-captures with 0" text
            (Vids.Snapshot.to_string (Vids.Snapshot.capture ~seq:2 ~at restored)))

(* ------------------------------------------------------------------ *)
(* The convergence property: checkpoint ∘ crash ∘ recover ≡ no-crash   *)
(* ------------------------------------------------------------------ *)

let converges ~governed ~calls ~frac =
  let config = if governed then Some sweepy_config else None in
  let trace = make_trace ~calls in
  let horizon = trace_horizon ~calls in
  let cut =
    Dsim.Time.of_us (max 1 (int_of_float (frac *. float_of_int (Dsim.Time.to_us horizon))))
  in
  let _, straight = Vids.Trace.replay_until ?config ~until:horizon trace in
  let reference = Vids.Snapshot.digest ~at:horizon straight in
  let sched, engine = Vids.Trace.replay_until ?config ~until:cut trace in
  let snap = Vids.Snapshot.capture ~seq:1 ~at:(Dsim.Scheduler.now sched) engine in
  (* Through the wire format, as a real crash would read it. *)
  match Vids.Snapshot.of_string (Vids.Snapshot.to_string snap) with
  | Error e -> Alcotest.failf "checkpoint round-trip failed: %s" e
  | Ok snap -> (
      match Vids.Recovery.recover ?config ~trace ~until:horizon snap with
      | Error e -> Alcotest.failf "recovery failed: %s" e
      | Ok outcome ->
          String.equal reference
            (Vids.Snapshot.digest ~at:horizon outcome.Vids.Recovery.engine))

let convergence_prop =
  q ~count:12 "recovery: checkpoint ∘ crash ∘ recover ≡ no-crash"
    (QCheck.make
       ~print:(fun (calls, frac, governed) ->
         Printf.sprintf "calls=%d frac=%.2f governed=%b" calls frac governed)
       QCheck.Gen.(
         triple (int_range 6 18) (float_range 0.05 0.95) bool))
    (fun (calls, frac, governed) -> converges ~governed ~calls ~frac)

let convergence_fixed () =
  List.iter
    (fun (governed, frac) ->
      check
        (Printf.sprintf "converges governed=%b frac=%.2f" governed frac)
        true
        (converges ~governed ~calls:15 ~frac))
    [ (false, 0.3); (false, 0.85); (true, 0.3); (true, 0.85) ]

(* ------------------------------------------------------------------ *)
(* Corruption fuzzing: damaged snapshots are rejected, never escape    *)
(* ------------------------------------------------------------------ *)

let base_snapshot_text =
  lazy
    (let sched, engine = engine_at ~config:None ~calls:8 (ms 380.) in
     Vids.Snapshot.to_string
       (Vids.Snapshot.capture ~seq:2 ~at:(Dsim.Scheduler.now sched) engine))

type mutation = Truncate | Flip | Insert | Delete_line

let mutate text mutation pos byte =
  let n = String.length text in
  if n = 0 then text
  else
    let pos = pos mod n in
    match mutation with
    | Truncate -> String.sub text 0 pos
    | Flip ->
        let b = Bytes.of_string text in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor max 1 (byte land 0xff)));
        Bytes.to_string b
    | Insert ->
        String.sub text 0 pos ^ Printf.sprintf "\ngarbage %d\n" byte
        ^ String.sub text pos (n - pos)
    | Delete_line -> (
        match String.split_on_char '\n' text with
        | lines ->
            let k = pos mod max 1 (List.length lines) in
            String.concat "\n" (List.filteri (fun i _ -> i <> k) lines))

let snapshot_fuzz =
  q ~count:400 "snapshot: corruption is rejected, never an exception"
    (QCheck.make
       ~print:(fun (m, pos, byte) ->
         Printf.sprintf "%s pos=%d byte=%d"
           (match m with
           | Truncate -> "truncate"
           | Flip -> "flip"
           | Insert -> "insert"
           | Delete_line -> "delete-line")
           pos byte)
       QCheck.Gen.(
         triple (oneofl [ Truncate; Flip; Insert; Delete_line ]) (int_range 0 5_000_000)
           (int_range 0 255)))
    (fun (m, pos, byte) ->
      let text = mutate (Lazy.force base_snapshot_text) m pos byte in
      match Vids.Snapshot.of_string text with
      | Error _ -> true
      | Ok snap -> (
          (* The mutation dodged the CRC (e.g. truncated to just the header,
             or deleted nothing): restoring must still be total. *)
          match Vids.Snapshot.restore snap with Ok _ -> true | Error _ -> true)
      | exception _ -> false)

let snapshot_version_skew () =
  let text = Lazy.force base_snapshot_text in
  let skewed =
    "VIDS-SNAPSHOT 99" ^ String.sub text 15 (String.length text - 15)
  in
  match Vids.Snapshot.of_string skewed with
  | Ok _ -> Alcotest.fail "version 99 accepted"
  | Error e ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      check "mentions version" true (contains e "version")

(* ------------------------------------------------------------------ *)
(* Lenient loaders                                                     *)
(* ------------------------------------------------------------------ *)

let with_temp_file content f =
  let path = Filename.temp_file "vids-test" ".tmp" in
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc;
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let journal_lenient_load () =
  let e1 = Vids.Journal.Checkpoint { at = ms 10.; seq = 1 } in
  let e2 =
    Vids.Journal.Alert
      (Vids.Alert.make ~kind:Vids.Alert.Bye_dos ~at:(ms 20.) ~subject:"c-1" "teardown")
  in
  let e3 = Vids.Journal.Eviction { at = ms 30.; subject = "c-2"; detail = "cap" } in
  let good = List.map Vids.Journal.entry_to_line [ e1; e2; e3 ] in
  let torn = String.sub (Vids.Journal.entry_to_line e3) 0 12 in
  let content = String.concat "\n" (good @ [ "not a journal line at all"; torn ]) ^ "\n" in
  with_temp_file content (fun path ->
      match Vids.Journal.load_lenient path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok (entries, skipped) ->
          check_int "three entries survive" 3 (List.length entries);
          check "entries decode intact" true (entries = [ e1; e2; e3 ]);
          check_int "two lines skipped" 2 (List.length skipped);
          check "skips carry line numbers" true (List.map fst skipped = [ 4; 5 ]))

let journal_suffix_split () =
  let a at subject =
    Vids.Journal.Alert
      (Vids.Alert.make ~kind:Vids.Alert.Media_spam ~at ~subject "spam")
  in
  let entries =
    [
      a (ms 5.) "s-1";
      Vids.Journal.Checkpoint { at = ms 10.; seq = 1 };
      a (ms 15.) "s-2";
      Vids.Journal.Checkpoint { at = ms 20.; seq = 2 };
      a (ms 25.) "s-3";
    ]
  in
  check_int "after marker 2" 1 (List.length (Vids.Journal.suffix_after ~seq:2 ~at:(ms 20.) entries));
  check_int "after marker 1" 3 (List.length (Vids.Journal.suffix_after ~seq:1 ~at:(ms 10.) entries));
  (* No marker: timestamp fallback. *)
  check_int "timestamp fallback" 1
    (List.length (Vids.Journal.suffix_after ~seq:99 ~at:(ms 20.) entries))

let trace_lenient_load () =
  let r1 =
    { Vids.Trace.at = ms 1.; src = sip_addr "10.0.0.1"; dst = sip_addr "10.0.0.2"; payload = "x" }
  in
  let r2 = { r1 with Vids.Trace.at = ms 2.; payload = "line\nwith\nnewlines\x00\xff" } in
  let content =
    String.concat "\n"
      [ Vids.Trace.record_to_line r1; "garbage here"; Vids.Trace.record_to_line r2; "1 2 3 zz" ]
    ^ "\n"
  in
  with_temp_file content (fun path ->
      let ic = open_in_bin path in
      let records, skipped = Vids.Trace.load_lenient ic in
      close_in ic;
      check "good records kept" true (records = [ r1; r2 ]);
      check "bad lines reported" true (List.map fst skipped = [ 2; 4 ]))

(* ------------------------------------------------------------------ *)
(* Files: rotation and fallback                                        *)
(* ------------------------------------------------------------------ *)

let rotation_and_fallback () =
  let path = Filename.temp_file "vids-ckpt" ".snap" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; Vids.Snapshot.previous_path path ])
    (fun () ->
      let calls = 10 in
      let trace = make_trace ~calls in
      let horizon = trace_horizon ~calls in
      let sched, engine = Vids.Trace.replay_until ~until:(ms 300.) trace in
      Vids.Snapshot.save ~path
        (Vids.Snapshot.capture ~seq:1 ~at:(Dsim.Scheduler.now sched) engine);
      let sched2, engine2 = Vids.Trace.replay_until ~until:(ms 500.) trace in
      Vids.Snapshot.save ~path
        (Vids.Snapshot.capture ~seq:2 ~at:(Dsim.Scheduler.now sched2) engine2);
      check "previous rotated" true (Sys.file_exists (Vids.Snapshot.previous_path path));
      (* Corrupt the primary: recovery must fall back to the rotated copy
         and still converge with an uninterrupted run from that instant. *)
      let oc = open_out_bin path in
      output_string oc "VIDS-SNAPSHOT 1 2 500000\ntotally torn";
      close_out oc;
      match Vids.Recovery.recover_files ~trace_path:"/nonexistent/trace" ~until:horizon
              ~snapshot_path:path ()
      with
      | Error e -> Alcotest.failf "fallback recovery failed: %s" e
      | Ok fr ->
          check "used fallback" true fr.Vids.Recovery.used_fallback;
          check_int "fallback is checkpoint #1" 1
            fr.Vids.Recovery.outcome.Vids.Recovery.snapshot_seq;
          check_int "primary rejected with reason" 1 (List.length fr.Vids.Recovery.rejected);
          (* Both copies gone: recovery reports, never raises. *)
          let oc = open_out_bin (Vids.Snapshot.previous_path path) in
          output_string oc "also torn";
          close_out oc;
          (match Vids.Recovery.recover_files ~snapshot_path:path () with
          | Ok _ -> Alcotest.fail "recovered from two corrupt snapshots"
          | Error e -> check "diagnostic names both files" true (String.length e > 0)))

(* ------------------------------------------------------------------ *)
(* Journal merge semantics                                             *)
(* ------------------------------------------------------------------ *)

let merge_idempotent () =
  let sched = Dsim.Scheduler.create () in
  let engine = Vids.Engine.create sched in
  let alert =
    Vids.Alert.make ~kind:Vids.Alert.Invite_flood ~at:(ms 5.) ~subject:"sip:bob@b.example"
      "INVITE flood"
  in
  Vids.Engine.merge_journal_alert engine alert;
  Vids.Engine.merge_journal_alert engine alert;
  check_int "merged exactly once" 1 (List.length (Vids.Engine.alerts engine));
  check_int "no suppression counted" 0 (Vids.Engine.counters engine).Vids.Engine.alerts_suppressed

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)
(* ------------------------------------------------------------------ *)

let base_policy =
  {
    Vids.Supervisor.default_policy with
    Vids.Supervisor.checkpoint_every = ms 500.;
    backoff_initial = ms 200.;
  }

let supervised_clean_run () =
  let trace = make_trace ~calls:20 in
  let report = Vids.Supervisor.run ~policy:base_policy ~trace ~kill_at:[] () in
  check_int "no crashes" 0 report.Vids.Supervisor.crashes;
  check_int "no packets missed" 0 report.Vids.Supervisor.packets_missed;
  check "checkpoints taken" true (report.Vids.Supervisor.checkpoints > 1);
  check "not given up" true (not report.Vids.Supervisor.gave_up)

let supervised_crash_and_recover () =
  let trace = make_trace ~calls:20 in
  let report = Vids.Supervisor.run ~policy:base_policy ~trace ~kill_at:[ ms 433. ] () in
  check_int "one crash" 1 report.Vids.Supervisor.crashes;
  check_int "one restart" 1 report.Vids.Supervisor.restarts;
  check "packets missed during outage" true (report.Vids.Supervisor.packets_missed > 0);
  check "downtime accounted" true
    (Dsim.Time.( >= ) report.Vids.Supervisor.downtime_total (ms 200.));
  (* The outage is on the recovered engine's record, surfaced by reports. *)
  check_int "downtime interval recorded" 1
    (List.length (Vids.Engine.downtime_intervals report.Vids.Supervisor.engine));
  (* Exactly-once: journal merge + replay never duplicates an alert. *)
  let alerts = Vids.Engine.alerts report.Vids.Supervisor.engine in
  let keys = List.map Vids.Alert.dedup_key alerts in
  check_int "alert log free of duplicates" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let supervised_restart_budget () =
  let trace = make_trace ~calls:20 in
  let policy = { base_policy with Vids.Supervisor.max_restarts = 2 } in
  (* The second outage runs 700–1100 ms (backoff doubled to 400 ms), so the
     third kill must land after it — kills inside an outage are absorbed. *)
  let kills = [ ms 433.; ms 700.; ms 1150. ] in
  let report = Vids.Supervisor.run ~policy ~trace ~kill_at:kills () in
  check "gave up" true report.Vids.Supervisor.gave_up;
  check_int "budget spent" 2 report.Vids.Supervisor.restarts;
  check "remaining trace missed" true (report.Vids.Supervisor.packets_missed > 0)

(* Restart-budget boundary: a budget of 3 must survive exactly three
   crashes — the third restart is the last allowed one, and only a fourth
   crash exhausts it. *)
let supervised_budget_exact_edge () =
  let trace = make_trace ~calls:20 in
  let policy = { base_policy with Vids.Supervisor.max_restarts = 3 } in
  (* Outages: 433–633 (200 ms), 933–1333 (doubled), 1433–2233 (doubled
     again) — each later kill lands after the previous restart. *)
  let at_budget =
    Vids.Supervisor.run ~policy ~trace ~kill_at:[ ms 433.; ms 933.; ms 1433. ] ()
  in
  check "exactly at budget: still alive" true (not at_budget.Vids.Supervisor.gave_up);
  check_int "all three restarts spent" 3 at_budget.Vids.Supervisor.restarts;
  check_int "three crashes" 3 at_budget.Vids.Supervisor.crashes;
  let over_budget =
    Vids.Supervisor.run ~policy ~trace ~kill_at:[ ms 433.; ms 933.; ms 1433.; ms 2333. ] ()
  in
  check "one past budget: gave up" true over_budget.Vids.Supervisor.gave_up;
  check_int "restarts never exceed the budget" 3 over_budget.Vids.Supervisor.restarts;
  check_int "the fourth crash is final" 4 over_budget.Vids.Supervisor.crashes

(* Backoff cap: an absurd growth factor (1e200 overflows to infinity by
   the third consecutive crash) must clamp at the cap instead of stalling
   the sensor for the rest of the horizon — the downtime ledger comes out
   exact. *)
let supervised_backoff_cap () =
  (* 30 calls put the horizon (last record + drain) past 3 s, so even the
     outage of the last kill at 2150 ms runs its full 400 ms instead of
     being clipped by the end of the run. *)
  let trace = make_trace ~calls:30 in
  let policy =
    {
      base_policy with
      Vids.Supervisor.max_restarts = 200;
      (* No checkpoint inside the horizon, so the consecutive-crash
         streak never resets and the exponent keeps growing. *)
      checkpoint_every = sec 1000.;
      backoff_factor = 1e200;
      backoff_cap = ms 400.;
    }
  in
  let kills = [ ms 100.; ms 350.; ms 800.; ms 1250.; ms 1700.; ms 2150. ] in
  let report = Vids.Supervisor.run ~policy ~trace ~kill_at:kills () in
  check "never gave up" true (not report.Vids.Supervisor.gave_up);
  check_int "every kill produced a restart" 6 report.Vids.Supervisor.restarts;
  (* First outage at the initial backoff, the five others clamped at the
     cap: 200 + 5 x 400 ms, to the microsecond. *)
  check "downtime exactly 200 + 5*400 ms" true
    (Dsim.Time.equal report.Vids.Supervisor.downtime_total (ms 2200.))

(* ------------------------------------------------------------------ *)
(* Durable-file corruption fuzz                                        *)
(* ------------------------------------------------------------------ *)

(* Random single-point corruption of an append-only file: a byte flip, a
   truncation, or a garbage splice.  Loaders must never raise, and every
   line wholly before the corruption point must come back verbatim — the
   CRC-armored prefix is the recovery contract. *)

let corruption_gen =
  QCheck.Gen.(
    quad (int_range 0 2) (int_range 0 10_000) any_byte
      (string_size ~gen:any_byte (int_range 0 64)))

let corruption_arb =
  QCheck.make
    ~print:(fun (mode, pos, c, junk) ->
      Printf.sprintf "mode=%d pos=%d byte=%02x junk=%S" mode pos (Char.code c) junk)
    corruption_gen

(* Applies one corruption to [lines] rendered as a file; returns the
   mangled content and how many leading lines are untouched. *)
let corrupt_lines lines (mode, pos, c, junk) =
  let original = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  let len = String.length original in
  let pos = if len = 0 then 0 else pos mod len in
  let corrupted =
    match mode with
    | 0 ->
        let b = Bytes.of_string original in
        let c = if Bytes.get b pos = c then Char.chr ((Char.code c + 1) land 0xff) else c in
        Bytes.set b pos c;
        Bytes.to_string b
    | 1 -> String.sub original 0 pos
    | _ -> String.sub original 0 pos ^ junk ^ String.sub original pos (len - pos)
  in
  let intact = ref 0 in
  let off = ref 0 in
  List.iter
    (fun l ->
      (* The line plus its newline must sit strictly before the
         corruption point. *)
      if !off + String.length l + 1 <= pos then incr intact;
      off := !off + String.length l + 1)
    lines;
  (corrupted, !intact)

let with_corrupt_file lines op f =
  let corrupted, intact = corrupt_lines lines op in
  let path = Filename.temp_file "vids_corrupt" ".log" in
  let oc = open_out_bin path in
  output_string oc corrupted;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path intact)

let prefix_matches rendered_loaded lines intact =
  List.length rendered_loaded >= intact
  && List.for_all2
       (fun a b -> String.equal a b)
       (List.filteri (fun i _ -> i < intact) rendered_loaded)
       (List.filteri (fun i _ -> i < intact) lines)

let journal_fixture_lines =
  let alert kind at subject msg = Vids.Journal.Alert (Vids.Alert.make ~kind ~at:(ms at) ~subject msg) in
  List.map Vids.Journal.entry_to_line
    [
      alert Vids.Alert.Invite_flood 5. "sip:bob@b.example" "INVITE flood";
      Vids.Journal.Eviction { at = ms 7.; subject = "call-0"; detail = "ttl expired" };
      alert Vids.Alert.Spec_deviation 12. "10.1.0.2:5060" "unparseable SIP";
      Vids.Journal.Checkpoint { at = ms 15.; seq = 1 };
      alert Vids.Alert.Invite_flood 21. "sip:carol@b.example" "INVITE flood";
      Vids.Journal.Eviction { at = ms 30.; subject = "call-3"; detail = "bye" };
      Vids.Journal.Checkpoint { at = ms 40.; seq = 2 };
      alert Vids.Alert.Spec_deviation 44. "10.9.0.9:5060" "teardown out of order";
    ]

let journal_corruption_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"journal: corruption never raises, keeps CRC-valid prefix"
       ~count:300 corruption_arb (fun op ->
         with_corrupt_file journal_fixture_lines op (fun path intact ->
             match Vids.Journal.load_lenient path with
             | Error e -> QCheck.Test.fail_reportf "load refused to open: %s" e
             | Ok (entries, _bad) ->
                 prefix_matches
                   (List.map Vids.Journal.entry_to_line entries)
                   journal_fixture_lines intact)))

let trace_fixture_lines = List.map Vids.Trace.record_to_line (make_trace ~calls:4)

let trace_corruption_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"trace: corruption never raises, keeps CRC-valid prefix"
       ~count:300 corruption_arb (fun op ->
         with_corrupt_file trace_fixture_lines op (fun path intact ->
             let ic = open_in_bin path in
             let records, _bad = Vids.Trace.load_lenient ic in
             close_in ic;
             prefix_matches
               (List.map Vids.Trace.record_to_line records)
               trace_fixture_lines intact)))

let supervised_warm_standby () =
  let trace = make_trace ~calls:20 in
  let kills = [ ms 733.; ms 1433. ] in
  let cold = Vids.Supervisor.run ~policy:base_policy ~trace ~kill_at:kills () in
  let warm_policy =
    { base_policy with Vids.Supervisor.warm_standby = true; failover_delay = ms 20. }
  in
  let warm = Vids.Supervisor.run ~policy:warm_policy ~trace ~kill_at:kills () in
  check "standby promoted" true (warm.Vids.Supervisor.standby_promotions >= 1);
  check "warm misses no more than cold" true
    (warm.Vids.Supervisor.packets_missed <= cold.Vids.Supervisor.packets_missed);
  check "warm downtime below cold" true
    (Dsim.Time.( < ) warm.Vids.Supervisor.downtime_total cold.Vids.Supervisor.downtime_total)

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "recovery",
      [
        value_token_roundtrip;
        trace_line_roundtrip;
        journal_line_roundtrip;
        tc "snapshot text round-trip" snapshot_text_roundtrip;
        tc "snapshot restore digest" snapshot_restore_digest;
        tc "reserved EC field ignored" snapshot_reserved_ec_field;
        convergence_prop;
        tc "convergence at fixed cuts" convergence_fixed;
        snapshot_fuzz;
        tc "snapshot version skew rejected" snapshot_version_skew;
        tc "journal lenient load" journal_lenient_load;
        tc "journal suffix split" journal_suffix_split;
        tc "trace lenient load" trace_lenient_load;
        tc "checkpoint rotation and fallback" rotation_and_fallback;
        tc "journal merge idempotent" merge_idempotent;
        tc "supervised clean run" supervised_clean_run;
        tc "supervised crash and recover" supervised_crash_and_recover;
        tc "supervised restart budget" supervised_restart_budget;
        tc "supervised budget exact edge" supervised_budget_exact_edge;
        tc "supervised backoff cap" supervised_backoff_cap;
        journal_corruption_fuzz;
        trace_corruption_fuzz;
        tc "supervised warm standby" supervised_warm_standby;
      ] );
  ]
