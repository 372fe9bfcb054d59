(* Tests for the vIDS pipeline: classifier, fact base, engine — fed with
   synthetic wire packets. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let tc name f = Alcotest.test_case name `Quick f

let ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected error: %s" e

let alloc = Dsim.Packet.allocator ()

let packet ?(at = 0) ~src ~dst payload = Dsim.Packet.make alloc ~src ~dst ~sent_at:at payload

let sip_addr host = Dsim.Addr.v host 5060

(* ------------------------------------------------------------------ *)
(* Classifier                                                          *)
(* ------------------------------------------------------------------ *)

let no_media _ = false

let invite_text =
  "INVITE sip:bob@b.example SIP/2.0\r\n\
   Via: SIP/2.0/UDP 10.1.0.2:5060;branch=z9hG4bKc1\r\n\
   From: <sip:alice@a.example>;tag=ta\r\n\
   To: <sip:bob@b.example>\r\n\
   Call-ID: c-1\r\n\
   CSeq: 1 INVITE\r\n\
   Contact: <sip:alice@10.1.0.10:5060>\r\n\
   Content-Type: application/sdp\r\n\
   \r\n\
   v=0\r\no=alice 0 0 IN IP4 10.1.0.10\r\ns=-\r\nc=IN IP4 10.1.0.10\r\nt=0 0\r\nm=audio 16384 RTP/AVP 18\r\n"

let classify_sip () =
  let p = packet ~src:(sip_addr "10.1.0.2") ~dst:(sip_addr "10.2.0.2") invite_text in
  match Vids.Classifier.classify ~known_media:no_media p with
  | Vids.Classifier.Sip msg -> check "is invite" true (Sip.Msg.method_of msg = Some Sip.Msg_method.INVITE)
  | _ -> Alcotest.fail "expected SIP"

let classify_malformed_sip () =
  let p = packet ~src:(sip_addr "10.1.0.2") ~dst:(sip_addr "10.2.0.2") "NOT SIP AT ALL" in
  match Vids.Classifier.classify ~known_media:no_media p with
  | Vids.Classifier.Malformed_sip _ -> ()
  | _ -> Alcotest.fail "expected malformed SIP"

let classify_rtp () =
  let rtp =
    Rtp.Rtp_packet.encode
      (Rtp.Rtp_packet.make ~payload_type:18 ~sequence:5 ~timestamp:0l ~ssrc:9l "x")
  in
  let p = packet ~src:(Dsim.Addr.v "10.1.0.10" 16384) ~dst:(Dsim.Addr.v "10.2.0.10" 20000) rtp in
  (match Vids.Classifier.classify ~known_media:no_media p with
  | Vids.Classifier.Rtp decoded -> check_int "seq" 5 decoded.Rtp.Rtp_packet.sequence
  | _ -> Alcotest.fail "expected RTP (port range)");
  (* Outside the range but registered as media. *)
  let p2 = packet ~src:(Dsim.Addr.v "h" 999) ~dst:(Dsim.Addr.v "10.2.0.10" 40002) rtp in
  match Vids.Classifier.classify ~known_media:(fun _ -> true) p2 with
  | Vids.Classifier.Rtp _ -> ()
  | _ -> Alcotest.fail "expected RTP (registered)"

let classify_rtcp () =
  let rtcp = Rtp.Rtcp.encode (Rtp.Rtcp.Receiver_report { ssrc = 1l; blocks = [] }) in
  let p = packet ~src:(Dsim.Addr.v "h" 16385) ~dst:(Dsim.Addr.v "h2" 20001) rtcp in
  match Vids.Classifier.classify ~known_media:no_media p with
  | Vids.Classifier.Rtcp _ -> ()
  | _ -> Alcotest.fail "expected RTCP"

let classify_other () =
  let p = packet ~src:(Dsim.Addr.v "h" 53) ~dst:(Dsim.Addr.v "h2" 53) "dns?" in
  match Vids.Classifier.classify ~known_media:no_media p with
  | Vids.Classifier.Other -> ()
  | _ -> Alcotest.fail "expected Other"

let quick_protocol () =
  check "sip by dst" true
    (Vids.Classifier.quick_protocol (packet ~src:(Dsim.Addr.v "h" 9) ~dst:(sip_addr "h2") "")
    = `Sip);
  check "media" true
    (Vids.Classifier.quick_protocol
       (packet ~src:(Dsim.Addr.v "h" 9) ~dst:(Dsim.Addr.v "h2" 16500) "")
    = `Media);
  check "other" true
    (Vids.Classifier.quick_protocol
       (packet ~src:(Dsim.Addr.v "h" 9) ~dst:(Dsim.Addr.v "h2" 80) "")
    = `Other)

(* ------------------------------------------------------------------ *)
(* Engine pipeline                                                     *)
(* ------------------------------------------------------------------ *)

type pipeline = { sched : Dsim.Scheduler.t; engine : Vids.Engine.t }

let make_pipeline () =
  let sched = Dsim.Scheduler.create () in
  { sched; engine = Vids.Engine.create sched }

let feed p ~src ~dst payload =
  Vids.Engine.process_packet p.engine
    (packet ~at:(Dsim.Scheduler.now p.sched) ~src ~dst payload)

let response_text ?(code = 200) ?(cseq = "1 INVITE") ?(to_tag = "tb") ?(sdp = true) () =
  let body =
    if sdp then
      "v=0\r\no=bob 0 0 IN IP4 10.2.0.10\r\ns=-\r\nc=IN IP4 10.2.0.10\r\nt=0 0\r\nm=audio 20000 RTP/AVP 18\r\n"
    else ""
  in
  Printf.sprintf
    "SIP/2.0 %d X\r\nVia: SIP/2.0/UDP 10.1.0.2:5060;branch=z9hG4bKc1\r\nFrom: <sip:alice@a.example>;tag=ta\r\nTo: <sip:bob@b.example>;tag=%s\r\nCall-ID: c-1\r\nCSeq: %s\r\nContact: <sip:bob@10.2.0.10:5060>\r\n%sContent-Length: %d\r\n\r\n%s"
    code to_tag cseq
    (if sdp then "Content-Type: application/sdp\r\n" else "")
    (String.length body) body

let bye_text ?(src_tag = "ta") () =
  Printf.sprintf
    "BYE sip:bob@10.2.0.10 SIP/2.0\r\nVia: SIP/2.0/UDP 10.1.0.10:5060;branch=z9hG4bKb9\r\nFrom: <sip:alice@a.example>;tag=%s\r\nTo: <sip:bob@b.example>;tag=tb\r\nCall-ID: c-1\r\nCSeq: 2 BYE\r\n\r\n"
    src_tag

let ack_text =
  "ACK sip:bob@10.2.0.10 SIP/2.0\r\nVia: SIP/2.0/UDP 10.1.0.10:5060;branch=z9hG4bKa7\r\nFrom: <sip:alice@a.example>;tag=ta\r\nTo: <sip:bob@b.example>;tag=tb\r\nCall-ID: c-1\r\nCSeq: 1 ACK\r\n\r\n"

let rtp_bytes ?(ssrc = 77l) ~seq ~ts () =
  Rtp.Rtp_packet.encode
    (Rtp.Rtp_packet.make ~payload_type:18 ~sequence:seq ~timestamp:(Int32.of_int ts) ~ssrc
       (String.make 20 'v'))

let run_call p =
  feed p ~src:(sip_addr "10.1.0.2") ~dst:(sip_addr "10.2.0.2") invite_text;
  feed p ~src:(sip_addr "10.2.0.2") ~dst:(sip_addr "10.1.0.2") (response_text ~code:180 ~sdp:false ());
  feed p ~src:(sip_addr "10.2.0.2") ~dst:(sip_addr "10.1.0.2") (response_text ());
  feed p ~src:(sip_addr "10.1.0.10") ~dst:(sip_addr "10.2.0.10") ack_text

let engine_tracks_call () =
  let p = make_pipeline () in
  run_call p;
  let stats = Vids.Engine.memory_stats p.engine in
  check_int "one call" 1 stats.Vids.Fact_base.active_calls;
  check_int "modeled 490 B" 490 stats.Vids.Fact_base.modeled_bytes;
  check "measured > 0" true (stats.Vids.Fact_base.measured_bytes > 0);
  let c = Vids.Engine.counters p.engine in
  check_int "four sip packets" 4 c.Vids.Engine.sip_packets;
  check_int "no alerts" 0 c.Vids.Engine.alerts_raised;
  check_int "no anomalies" 0 c.Vids.Engine.anomalies

let engine_routes_rtp_to_call () =
  let p = make_pipeline () in
  run_call p;
  (* Media both ways: to callee media (20000) and caller media (16384). *)
  feed p ~src:(Dsim.Addr.v "10.1.0.10" 16384) ~dst:(Dsim.Addr.v "10.2.0.10" 20000)
    (rtp_bytes ~seq:1 ~ts:160 ());
  feed p ~src:(Dsim.Addr.v "10.2.0.10" 20000) ~dst:(Dsim.Addr.v "10.1.0.10" 16384)
    (rtp_bytes ~ssrc:88l ~seq:1 ~ts:160 ());
  let c = Vids.Engine.counters p.engine in
  check_int "rtp seen" 2 c.Vids.Engine.rtp_packets;
  check_int "no alerts" 0 c.Vids.Engine.alerts_raised;
  (* The call's RTP machine is active now. *)
  let call = Option.get (Vids.Fact_base.find_call (Vids.Engine.fact_base p.engine) "c-1") in
  check_str "rtp active" Vids.Rtp_call_machine.st_active
    (Efsm.Machine.state call.Vids.Fact_base.rtp)

let engine_detects_bye_dos_end_to_end () =
  let p = make_pipeline () in
  run_call p;
  feed p ~src:(Dsim.Addr.v "10.1.0.10" 16384) ~dst:(Dsim.Addr.v "10.2.0.10" 20000)
    (rtp_bytes ~seq:1 ~ts:160 ());
  (* Spoofed BYE: right tags, wrong network source. *)
  feed p ~src:(sip_addr "203.0.113.66") ~dst:(sip_addr "10.2.0.10") (bye_text ());
  Dsim.Scheduler.run_until p.sched (Dsim.Time.of_sec 1.0);
  feed p ~src:(Dsim.Addr.v "10.1.0.10" 16384) ~dst:(Dsim.Addr.v "10.2.0.10" 20000)
    (rtp_bytes ~seq:30 ~ts:4800 ());
  let alerts = Vids.Engine.alerts_of_kind p.engine Vids.Alert.Bye_dos in
  check_int "bye dos alert" 1 (List.length alerts);
  check_str "subject is the call" "c-1" (List.hd alerts).Vids.Alert.subject

let engine_clean_teardown_no_alert () =
  let p = make_pipeline () in
  run_call p;
  feed p ~src:(Dsim.Addr.v "10.1.0.10" 16384) ~dst:(Dsim.Addr.v "10.2.0.10" 20000)
    (rtp_bytes ~seq:1 ~ts:160 ());
  (* Genuine BYE from the caller's contact host. *)
  feed p ~src:(sip_addr "10.1.0.10") ~dst:(sip_addr "10.2.0.10") (bye_text ());
  feed p ~src:(sip_addr "10.2.0.10") ~dst:(sip_addr "10.1.0.10")
    (response_text ~code:200 ~cseq:"2 BYE" ~sdp:false ());
  Dsim.Scheduler.run_until p.sched (Dsim.Time.of_sec 2.0);
  let c = Vids.Engine.counters p.engine in
  check_int "no alerts" 0 c.Vids.Engine.alerts_raised;
  (* Record reaped after the linger. *)
  Dsim.Scheduler.run_until p.sched (Dsim.Time.of_sec 60.0);
  let stats = Vids.Engine.memory_stats p.engine in
  check_int "deleted" 0 stats.Vids.Fact_base.active_calls;
  check_int "created 1" 1 stats.Vids.Fact_base.calls_created;
  check_int "deleted 1" 1 stats.Vids.Fact_base.calls_deleted

let engine_malformed_sip_alert () =
  let p = make_pipeline () in
  feed p ~src:(sip_addr "203.0.113.1") ~dst:(sip_addr "10.2.0.2") "\x01\x02garbage";
  let c = Vids.Engine.counters p.engine in
  check_int "malformed counted" 1 c.Vids.Engine.malformed_packets;
  check_int "alert raised" 1
    (List.length (Vids.Engine.alerts_of_kind p.engine Vids.Alert.Spec_deviation))

let engine_orphan_request_warns () =
  let p = make_pipeline () in
  feed p ~src:(sip_addr "10.1.0.10") ~dst:(sip_addr "10.2.0.10") (bye_text ());
  let c = Vids.Engine.counters p.engine in
  check_int "orphan request" 1 c.Vids.Engine.orphan_requests

let engine_orphan_responses_feed_drdos () =
  let p = make_pipeline () in
  let n = Vids.Config.default.Vids.Config.drdos_threshold + 1 in
  for i = 1 to n do
    let text =
      Printf.sprintf
        "SIP/2.0 200 OK\r\nVia: SIP/2.0/UDP refl%d:5060;branch=z9hG4bKr%d\r\nFrom: <sip:v@x>;tag=1\r\nTo: <sip:v@x>;tag=2\r\nCall-ID: refl-%d\r\nCSeq: 1 OPTIONS\r\n\r\n"
        i i i
    in
    feed p ~src:(sip_addr (Printf.sprintf "refl%d" i)) ~dst:(sip_addr "10.2.0.10") text
  done;
  check_int "drdos alert" 1
    (List.length (Vids.Engine.alerts_of_kind p.engine Vids.Alert.Drdos));
  let c = Vids.Engine.counters p.engine in
  check_int "orphans counted" n c.Vids.Engine.orphan_responses

let engine_dedup () =
  let p = make_pipeline () in
  run_call p;
  feed p ~src:(Dsim.Addr.v "10.1.0.10" 16384) ~dst:(Dsim.Addr.v "10.2.0.10" 20000)
    (rtp_bytes ~seq:1 ~ts:160 ());
  feed p ~src:(sip_addr "203.0.113.66") ~dst:(sip_addr "10.2.0.10") (bye_text ());
  Dsim.Scheduler.run_until p.sched (Dsim.Time.of_sec 1.0);
  for i = 0 to 9 do
    feed p ~src:(Dsim.Addr.v "10.1.0.10" 16384) ~dst:(Dsim.Addr.v "10.2.0.10" 20000)
      (rtp_bytes ~seq:(40 + i) ~ts:(6400 + (160 * i)) ())
  done;
  let c = Vids.Engine.counters p.engine in
  check_int "one distinct" 1 (List.length (Vids.Engine.alerts_of_kind p.engine Vids.Alert.Bye_dos));
  check "duplicates suppressed" true (c.Vids.Engine.alerts_suppressed >= 9)

let engine_listener () =
  let p = make_pipeline () in
  let heard = ref 0 in
  Vids.Engine.on_alert p.engine (fun _ -> incr heard);
  feed p ~src:(sip_addr "x") ~dst:(sip_addr "10.2.0.2") "junk";
  check_int "listener invoked" 1 !heard

let engine_cpu_accounting () =
  let p = make_pipeline () in
  run_call p;
  let expected = 4 * Vids.Config.default.Vids.Config.sip_cpu_cost in
  check_int "busy time" expected (Vids.Engine.cpu_busy p.engine)

let engine_transit_delay_queueing () =
  let p = make_pipeline () in
  let sip_packet = packet ~src:(sip_addr "a") ~dst:(sip_addr "b") "x" in
  let d1 = Vids.Engine.transit_delay p.engine sip_packet in
  let d2 = Vids.Engine.transit_delay p.engine sip_packet in
  let cfg = Vids.Config.default in
  check_int "first is pipeline latency" cfg.Vids.Config.sip_transit_delay d1;
  check_int "second queues behind cpu" (cfg.Vids.Config.sip_transit_delay + cfg.Vids.Config.sip_cpu_cost) d2;
  let other = packet ~src:(Dsim.Addr.v "a" 1) ~dst:(Dsim.Addr.v "b" 2) "x" in
  check_int "other free" 0 (Vids.Engine.transit_delay p.engine other)

let fact_base_sweep () =
  let p = make_pipeline () in
  feed p ~src:(sip_addr "10.1.0.2") ~dst:(sip_addr "10.2.0.2") invite_text;
  Dsim.Scheduler.run_until p.sched (Dsim.Time.of_sec 3600.0);
  check_int "still there (never finished)" 1
    (Vids.Engine.memory_stats p.engine).Vids.Fact_base.active_calls;
  let swept = Vids.Fact_base.sweep (Vids.Engine.fact_base p.engine) ~max_age:(Dsim.Time.of_sec 1800.0) in
  check_int "swept" 1 swept;
  check_int "gone" 0 (Vids.Engine.memory_stats p.engine).Vids.Fact_base.active_calls

let fact_base_media_index () =
  let p = make_pipeline () in
  run_call p;
  let base = Vids.Engine.fact_base p.engine in
  check "caller media known" true (Vids.Fact_base.known_media base (Dsim.Addr.v "10.1.0.10" 16384));
  check "callee media known" true (Vids.Fact_base.known_media base (Dsim.Addr.v "10.2.0.10" 20000));
  check "unknown" false (Vids.Fact_base.known_media base (Dsim.Addr.v "10.9.9.9" 1000));
  match Vids.Fact_base.call_for_media base (Dsim.Addr.v "10.2.0.10" 20000) with
  | Some call -> check_str "routes to call" "c-1" call.Vids.Fact_base.call_id
  | None -> Alcotest.fail "media not indexed"

let memory_scales_linearly () =
  let p = make_pipeline () in
  let per_call =
    Vids.Config.default.Vids.Config.sip_state_bytes
    + Vids.Config.default.Vids.Config.rtp_state_bytes
  in
  for i = 1 to 100 do
    let text =
      Printf.sprintf
        "INVITE sip:u%d@b.example SIP/2.0\r\nVia: SIP/2.0/UDP 10.1.0.2:5060;branch=z9hG4bKm%d\r\nFrom: <sip:a@a.example>;tag=t%d\r\nTo: <sip:u%d@b.example>\r\nCall-ID: scale-%d\r\nCSeq: 1 INVITE\r\n\r\n"
        i i i i i
    in
    feed p ~src:(sip_addr "10.1.0.2") ~dst:(sip_addr "10.2.0.2") text
  done;
  let stats = Vids.Engine.memory_stats p.engine in
  check_int "100 calls" 100 stats.Vids.Fact_base.active_calls;
  check_int "linear model" (100 * per_call) stats.Vids.Fact_base.modeled_bytes

let intern_basics () =
  let t = Vids.Intern.create () in
  let a = Vids.Intern.intern t "alpha" in
  let b = Vids.Intern.intern t "beta" in
  Alcotest.(check bool) "distinct ids" true (a <> b);
  Alcotest.(check int) "stable" a (Vids.Intern.intern t "alpha");
  Alcotest.(check (option int)) "find" (Some b) (Vids.Intern.find t "beta");
  Alcotest.(check (option int)) "miss" None (Vids.Intern.find t "gamma");
  Alcotest.(check string) "name" "beta" (Vids.Intern.name t b);
  Alcotest.(check int) "count" 2 (Vids.Intern.count t);
  Alcotest.(check bool) "hash deterministic" true
    (Vids.Intern.hash "Call-ID-1" = Vids.Intern.hash "Call-ID-1");
  Alcotest.(check bool) "hash non-negative" true (Vids.Intern.hash "x" >= 0)

(* ------------------------------------------------------------------ *)
(* Baselines                                                           *)
(* ------------------------------------------------------------------ *)

let snort_stateless_misses_bye_dos () =
  let snort = Baseline.Snort_like.create Baseline.Snort_like.default_rules in
  (* The exact packets of the BYE DoS scenario trigger nothing. *)
  let packets =
    [
      packet ~src:(sip_addr "10.1.0.2") ~dst:(sip_addr "10.2.0.2") invite_text;
      packet ~src:(sip_addr "10.2.0.2") ~dst:(sip_addr "10.1.0.2") (response_text ());
      packet ~src:(sip_addr "203.0.113.66") ~dst:(sip_addr "10.2.0.10") (bye_text ());
      packet ~src:(Dsim.Addr.v "10.1.0.10" 16384) ~dst:(Dsim.Addr.v "10.2.0.10" 20000)
        (rtp_bytes ~seq:30 ~ts:4800 ());
    ]
  in
  let alerts = List.concat_map (Baseline.Snort_like.process snort) packets in
  check_int "stateless baseline is blind" 0 (List.length alerts);
  check_int "packets counted" 4 (Baseline.Snort_like.packets_processed snort)

let snort_catches_malformed () =
  let snort = Baseline.Snort_like.create Baseline.Snort_like.default_rules in
  let alerts =
    Baseline.Snort_like.process snort
      (packet ~src:(sip_addr "x") ~dst:(sip_addr "y") "garbage message")
  in
  check_int "malformed flagged" 1 (List.length alerts)

let scidive_catches_bye_dos_but_needs_rule () =
  let sched = Dsim.Scheduler.create () in
  let scidive = Baseline.Scidive_like.create sched () in
  let feed pkt = Baseline.Scidive_like.process scidive pkt in
  ignore (feed (packet ~src:(sip_addr "10.1.0.2") ~dst:(sip_addr "10.2.0.2") invite_text));
  ignore (feed (packet ~src:(sip_addr "10.2.0.2") ~dst:(sip_addr "10.1.0.2") (response_text ())));
  ignore (feed (packet ~src:(sip_addr "203.0.113.66") ~dst:(sip_addr "10.2.0.10") (bye_text ())));
  Dsim.Scheduler.run_until sched (Dsim.Time.of_sec 1.0);
  let alerts =
    feed
      (packet ~src:(Dsim.Addr.v "10.1.0.10" 16384) ~dst:(Dsim.Addr.v "10.2.0.10" 20000)
         (rtp_bytes ~seq:30 ~ts:4800 ()))
  in
  check_int "stateful cross-protocol rule fires" 1 (List.length alerts);
  (* But an attack with no rule (hijack) passes silently. *)
  let hijack =
    "INVITE sip:bob@b.example SIP/2.0\r\nVia: SIP/2.0/UDP 203.0.113.66:5060;branch=z9hG4bKh\r\nFrom: <sip:m@evil>;tag=tm\r\nTo: <sip:bob@b.example>;tag=tb\r\nCall-ID: c-1\r\nCSeq: 60 INVITE\r\n\r\n"
  in
  let alerts2 = feed (packet ~src:(sip_addr "203.0.113.66") ~dst:(sip_addr "10.2.0.10") hijack) in
  check_int "no rule, no detection" 0 (List.length alerts2)

let alert_formatting () =
  let a =
    Vids.Alert.make ~kind:Vids.Alert.Bye_dos ~at:(Dsim.Time.of_sec 1.0) ~subject:"c-9" "detail"
  in
  let rendered = Format.asprintf "%a" Vids.Alert.pp a in
  check "mentions kind" true
    (String.length rendered > 0
    &&
    let rec contains i =
      i + 7 <= String.length rendered && (String.sub rendered i 7 = "BYE-DoS" || contains (i + 1))
    in
    contains 0);
  check_str "dedup key" "BYE-DoS|c-9" (Vids.Alert.dedup_key a);
  check "severity default" true (a.Vids.Alert.severity = Vids.Alert.Critical);
  check "spec deviation is warning" true
    (Vids.Alert.default_severity Vids.Alert.Spec_deviation = Vids.Alert.Warning)

let sip_event_encoding () =
  let msg = ok (Sip.Msg.parse invite_text) in
  let event =
    Vids.Sip_event.of_msg ~at:0 ~src:(sip_addr "10.1.0.2") ~dst:(sip_addr "10.2.0.2") msg
  in
  check_str "name" "INVITE" event.Efsm.Event.name;
  check_str "src" "10.1.0.2" (Efsm.Event.arg_str event Vids.Keys.src_ip);
  check_str "call id" "c-1" (Efsm.Event.arg_str event Vids.Keys.call_id);
  check_str "media host" "10.1.0.10" (Efsm.Event.arg_str event Vids.Keys.media_host);
  check_int "media port" 16384 (Efsm.Event.arg_int event Vids.Keys.media_port);
  check "flood key" true (Vids.Sip_event.flood_key msg = Some "bob@b.example");
  check "media addr" true
    (Vids.Sip_event.media_of_event event = Some (Dsim.Addr.v "10.1.0.10" 16384))

let suite =
  [
    ( "vids.classifier",
      [
        tc "sip" classify_sip;
        tc "malformed sip" classify_malformed_sip;
        tc "rtp" classify_rtp;
        tc "rtcp" classify_rtcp;
        tc "other" classify_other;
        tc "quick protocol" quick_protocol;
      ] );
    ( "vids.engine",
      [
        tc "tracks a call" engine_tracks_call;
        tc "routes rtp" engine_routes_rtp_to_call;
        tc "bye dos end-to-end" engine_detects_bye_dos_end_to_end;
        tc "clean teardown" engine_clean_teardown_no_alert;
        tc "malformed sip alert" engine_malformed_sip_alert;
        tc "orphan request" engine_orphan_request_warns;
        tc "orphan responses -> drdos" engine_orphan_responses_feed_drdos;
        tc "alert dedup" engine_dedup;
        tc "alert listener" engine_listener;
        tc "cpu accounting" engine_cpu_accounting;
        tc "inline queueing" engine_transit_delay_queueing;
      ] );
    ( "vids.fact_base",
      [
        tc "sweep" fact_base_sweep;
        tc "media index" fact_base_media_index;
        tc "memory linear" memory_scales_linearly;
        tc "intern ids, find, hash" intern_basics;
      ] );
    ( "vids.sip_event",
      [ tc "encoding" sip_event_encoding; tc "alert formatting" alert_formatting ] );
    ( "baseline",
      [
        tc "snort misses bye dos" snort_stateless_misses_bye_dos;
        tc "snort catches malformed" snort_catches_malformed;
        tc "scidive rule coverage" scidive_catches_bye_dos_but_needs_rule;
      ] );
  ]
