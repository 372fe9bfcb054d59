(* Offline forensics: capture the traffic crossing the sensor to a libpcap
   file (vIDS disabled — a plain packet recorder, as one would run tcpdump
   at the tap), then replay the file through the full analysis pipeline
   afterwards.  Timer-based patterns work identically offline because
   replay reconstructs virtual time from capture timestamps.

   Run with: dune exec examples/offline_forensics.exe *)

module T = Voip.Testbed

let sec = Dsim.Time.of_sec

let () =
  (* 1. Record: a clean call plus two attacks, no IDS running. *)
  let tb = T.make ~seed:90210 ~n_ua:4 ~vids:T.Off () in
  let recorder = Vids.Trace.recorder () in
  Dsim.Network.set_tap tb.T.vids_node (Some (Vids.Trace.tap recorder tb.T.sched));
  let atk = Attack.Scenarios.create tb ~host:"203.0.113.66" in
  let ua_a n = List.nth tb.T.uas_a n and ua_b n = List.nth tb.T.uas_b n in
  ignore
    (Dsim.Scheduler.schedule_at tb.T.sched (sec 1.0) (fun () ->
         Voip.Ua.call (ua_a 3) ~callee:(Voip.Ua.aor (ua_b 3)) ~duration:(sec 20.0)));
  Attack.Scenarios.spoofed_bye_call atk ~caller:(ua_a 0) ~callee:(ua_b 0) ~at:(sec 5.0);
  Attack.Scenarios.invite_flood atk ~target:(Voip.Ua.aor (ua_b 1)) ~via_proxy:true ~count:20
    ~interval:(Dsim.Time.of_ms 40.0) ~at:(sec 30.0);
  T.run_until tb (sec 60.0);

  let records = Vids.Trace.records recorder in
  let path = Filename.temp_file "vids-forensics" ".pcap" in
  Ingest.Pcap.write_file path records;
  Format.printf "recorded %d packets to %s@." (List.length records) path;

  (* 2. Analyze: load the file back and run the engine over it. *)
  let loaded, _skipped = Result.get_ok (Ingest.Pcap.read_file path) in
  Format.printf "@.replaying offline...@.@.";
  let _sched, engine = Vids.Trace.replay loaded in
  Vids.Report.full Format.std_formatter engine;
  Sys.remove path
