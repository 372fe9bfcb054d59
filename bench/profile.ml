(* Profiling bench: what does the hot-path profiler itself cost, and
   where does the pipeline's time actually go?

   Three gates, answered in BENCH_profile.json:

   1. Overhead — the shared {!Workload} trace is replayed through a bare
      engine and through one carrying an {!Obs.Prof} profiler (every
      parse/dispatch/detect span live).  Best-of-N drive times; the gate
      requires the profiled run within 5% of the baseline plus a 10 ms
      epsilon, the same contract the telemetry bench enforces.
   2. Transparency — profiling must be write-only: the canonical
      [Vids.Snapshot.digest] of the two engines must be byte-identical.
   3. Coverage — the per-stage self times must account for at least 90%
      of the measured end-to-end drive time, i.e. the span set actually
      explains where the wall clock went (a [Drive] span around the
      scheduler run turns uninstrumented time into explicit self time).

   The JSON carries the full per-stage breakdown (shares, quantiles,
   bytes/record) — the rows bench/trend.exe compares against a committed
   baseline to catch per-stage regressions in CI.

   Scale comes from argv: [profile.exe 400 3] replays 400 calls with
   best-of-3 timing (the CI smoke preset); the default is 2000 calls,
   best-of-5. *)

(* One replay over a private clock: both modes time the streaming replay
   loop ([Vids.Trace.replay_on]) that the daemon and [analyze] run. *)
let replay ~profiled ~horizon trace =
  let sched = Dsim.Scheduler.create () in
  let engine = Vids.Engine.create sched in
  let prof =
    if not profiled then None
    else begin
      let p = Obs.Prof.create () in
      Vids.Engine.set_profiler engine (Some p);
      Some p
    end
  in
  let drive_s =
    Bench_common.time (fun () ->
        (match prof with Some p -> Obs.Prof.enter p Obs.Prof.Drive | None -> ());
        ignore (Vids.Trace.replay_on ~until:horizon sched engine trace);
        match prof with Some p -> Obs.Prof.exit p Obs.Prof.Drive | None -> ())
  in
  (engine, prof, drive_s)

let () =
  let calls = try int_of_string Sys.argv.(1) with _ -> 2000 in
  let repeats = try int_of_string Sys.argv.(2) with _ -> 5 in
  let trace = Workload.make_trace ~calls in
  let n_records = List.length trace in
  let horizon = Workload.horizon ~calls in
  Printf.printf "trace: %d calls, %d records, best of %d\n%!" calls n_records repeats;
  let best_of n f =
    if n <= 0 then invalid_arg "best_of";
    let best = ref infinity in
    for _ = 1 to n do
      let _, _, s = f () in
      if s < !best then best := s
    done;
    !best
  in
  let base_s = best_of repeats (fun () -> replay ~profiled:false ~horizon trace) in
  let prof_s = best_of repeats (fun () -> replay ~profiled:true ~horizon trace) in
  (* Transparency + breakdown: one fresh run per mode, digests compared at
     the horizon, the profiled run's report kept for the artifact. *)
  let bare_engine, _, _ = replay ~profiled:false ~horizon trace in
  let prof_engine, prof, drive_s = replay ~profiled:true ~horizon trace in
  let prof = Option.get prof in
  let bare_digest = Vids.Snapshot.digest ~at:horizon bare_engine in
  let prof_digest = Vids.Snapshot.digest ~at:horizon prof_engine in
  let transparent = String.equal bare_digest prof_digest in
  Obs.Prof.sample_gc prof;
  let report = Obs.Prof.report_of_snapshot (Obs.Metrics.snapshot (Obs.Prof.registry prof)) in
  let covered_s = Obs.Prof.total_seconds report in
  let coverage = if drive_s > 0. then covered_s /. drive_s else 0. in
  let overhead = (prof_s -. base_s) /. base_s in
  (* Same 5% + 10 ms contract as the telemetry gate. *)
  let overhead_ok = prof_s <= (base_s *. 1.05) +. 0.010 in
  let coverage_ok = coverage >= 0.90 in
  let gate_passed = overhead_ok && coverage_ok && transparent in
  Printf.printf "baseline: %.3f s (%.0f records/s)\n" base_s (float_of_int n_records /. base_s);
  Printf.printf "profiled: %.3f s (%.0f records/s), overhead %+.2f%%\n" prof_s
    (float_of_int n_records /. prof_s)
    (100. *. overhead);
  Printf.printf "digest identical with profiling on: %b\n" transparent;
  Printf.printf "span coverage: %.1f%% of %.3f s drive time across %d stages\n"
    (100. *. coverage) drive_s (List.length report);
  Format.printf "%a%!" (Obs.Prof.pp_table ~records:n_records ~total_s:drive_s) report;
  let live = Bench_common.live_words () in
  let module J = Bench_common.Json in
  Bench_common.write_json ~path:"BENCH_profile.json"
    (J.obj
       [
         ("bench", J.quote "profile");
         ("calls", J.int calls);
         ("records", J.int n_records);
         ("repeats", J.int repeats);
         ("baseline_s", J.float base_s);
         ("profiled_s", J.float prof_s);
         ("overhead_fraction", J.float overhead);
         ("baseline_records_per_s", J.float (float_of_int n_records /. base_s));
         ("profiled_records_per_s", J.float (float_of_int n_records /. prof_s));
         ("digest_identical", J.bool transparent);
         ("coverage_fraction", J.float coverage);
         ("live_words", J.int live);
         ("stages", Obs.Prof.report_json ~records:n_records ~total_s:drive_s report);
         ( "gate",
           J.obj
             [
               ("max_overhead_fraction", J.float 0.05);
               ("epsilon_s", J.float 0.010);
               ("min_coverage_fraction", J.float 0.90);
               ("passed", J.bool gate_passed);
             ] );
       ]
    ^ "\n");
  if not transparent then begin
    prerr_endline "FAIL: profiling changed the engine digest";
    exit 1
  end;
  if not overhead_ok then begin
    Printf.eprintf "FAIL: profiling overhead %.2f%% exceeds the 5%% gate\n" (100. *. overhead);
    exit 1
  end;
  if not coverage_ok then begin
    Printf.eprintf "FAIL: span coverage %.1f%% below the 90%% gate\n" (100. *. coverage);
    exit 1
  end
