(* Observability bench: what does leaving telemetry on cost, and does it
   change detection?

   Two questions, answered in BENCH_obs.json:

   1. Overhead — the same dialog-rich trace (full dialogs with media,
      abandoned calls, a rogue RTP flood) is replayed through a bare
      engine and through one carrying a full metrics registry + flight
      recorder.  Best-of-N wall times; the gate requires the instrumented
      run within 5% of the baseline (plus a 10 ms epsilon so micro runs
      aren't judged on scheduler noise).
   2. Transparency — telemetry must be write-only: the canonical
      [Vids.Snapshot.digest] of the two engines must be byte-identical.
      Divergence fails the run, and so CI.

   The instrumented run's exports are written next to the JSON artifact
   (obs_sample.prom, obs_sample_trace.jsonl) so CI uploads a sample of
   both exporter formats.

   Scale comes from argv: [obs_bench.exe 400 3] replays 400 calls with
   best-of-3 timing (the CI smoke preset); the default is 2000 calls,
   best-of-5. *)

(* The trace itself (dialog mix, rogue floods, horizon margin) lives in
   {!Workload} and is shared with the profiling bench, so the two
   artifacts describe the same traffic. *)

(* One replay over a private clock; with [telemetry] the engine carries a
   full registry + flight recorder, the exact configuration the CLI's
   --metrics-out/--trace-out flags produce. *)
let replay ~telemetry ~horizon trace =
  let sched = Dsim.Scheduler.create () in
  let engine = Vids.Engine.create sched in
  let obs =
    if not telemetry then None
    else begin
      let metrics = Obs.Metrics.create () in
      let flight = Obs.Trace.create ~capacity:256 () in
      Vids.Engine.set_telemetry engine ~metrics ~flight ();
      Some (metrics, flight)
    end
  in
  ignore (Vids.Trace.replay_on ~until:horizon sched engine trace);
  (engine, obs)

let () =
  let calls = try int_of_string Sys.argv.(1) with _ -> 2000 in
  let repeats = try int_of_string Sys.argv.(2) with _ -> 5 in
  let trace = Workload.make_trace ~calls in
  let n_records = List.length trace in
  let horizon = Workload.horizon ~calls in
  Printf.printf "trace: %d calls, %d records, best of %d\n%!" calls n_records repeats;
  let base_s =
    Bench_common.best_of repeats (fun () -> ignore (replay ~telemetry:false ~horizon trace))
  in
  let inst_s =
    Bench_common.best_of repeats (fun () -> ignore (replay ~telemetry:true ~horizon trace))
  in
  (* Transparency: one fresh run per mode, digests compared at the horizon. *)
  let bare_engine, _ = replay ~telemetry:false ~horizon trace in
  let inst_engine, obs = replay ~telemetry:true ~horizon trace in
  let metrics, flight = Option.get obs in
  let bare_digest = Vids.Snapshot.digest ~at:horizon bare_engine in
  let inst_digest = Vids.Snapshot.digest ~at:horizon inst_engine in
  let transparent = String.equal bare_digest inst_digest in
  let overhead = (inst_s -. base_s) /. base_s in
  (* The 5% gate carries a 10 ms epsilon so sub-second smoke runs aren't
     judged on scheduler noise. *)
  let gate_passed = inst_s <= (base_s *. 1.05) +. 0.010 in
  Printf.printf "baseline:     %.3f s (%.0f records/s)\n" base_s (float_of_int n_records /. base_s);
  Printf.printf "instrumented: %.3f s (%.0f records/s), overhead %+.2f%%\n" inst_s
    (float_of_int n_records /. inst_s)
    (100. *. overhead);
  Printf.printf "digest identical with telemetry on: %b\n" transparent;
  let snap = Obs.Metrics.snapshot metrics in
  let packets_seen = Obs.Metrics.total snap "vids_packets_total" in
  Printf.printf "registry: %d rows, %d packets counted; flight recorder: %d events\n"
    (List.length snap.Obs.Metrics.rows)
    packets_seen
    (Obs.Trace.recorded flight);
  (* Sample exports for the CI artifact. *)
  Obs.Export.write_metrics ~path:"obs_sample.prom" snap;
  (try Sys.remove "obs_sample_trace.jsonl" with Sys_error _ -> ());
  Obs.Export.append_trace ~reason:"bench end of run" ~path:"obs_sample_trace.jsonl"
    (Obs.Trace.entries flight);
  print_endline "wrote obs_sample.prom, obs_sample_trace.jsonl";
  let module J = Bench_common.Json in
  Bench_common.write_json ~path:"BENCH_obs.json"
    (J.obj
       [
         ("bench", J.quote "obs");
         ("calls", J.int calls);
         ("records", J.int n_records);
         ("repeats", J.int repeats);
         ("baseline_s", J.float base_s);
         ("instrumented_s", J.float inst_s);
         ("overhead_fraction", J.float overhead);
         ("baseline_records_per_s", J.float (float_of_int n_records /. base_s));
         ("instrumented_records_per_s", J.float (float_of_int n_records /. inst_s));
         ("digest_identical", J.bool transparent);
         ("registry_rows", J.int (List.length snap.Obs.Metrics.rows));
         ("packets_counted", J.int packets_seen);
         ("flight_events", J.int (Obs.Trace.recorded flight));
         ( "gate",
           J.obj
             [
               ("max_overhead_fraction", J.float 0.05);
               ("epsilon_s", J.float 0.010);
               ("passed", J.bool gate_passed);
             ] );
       ]
    ^ "\n");
  if not transparent then begin
    prerr_endline "FAIL: telemetry changed the engine digest";
    exit 1
  end;
  if not gate_passed then begin
    Printf.eprintf "FAIL: telemetry overhead %.2f%% exceeds the 5%% gate\n" (100. *. overhead);
    exit 1
  end
