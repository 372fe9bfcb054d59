(* Telemetry subsystem: the metrics registry (registration, snapshots),
   the flight recorder (ring semantics, dumps), the exporters, the
   Quantiles.merge edge cases the registry leans on, and the engine-level
   contract that telemetry is write-only (digest-identical detection with
   telemetry on). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let tc name f = Alcotest.test_case name `Quick f

let q ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

let sec = Dsim.Time.of_sec

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* --- Quantiles.merge edge cases --------------------------------------- *)

module Q = Dsim.Stat.Quantiles

let t_quantiles_merge_empty () =
  let a = Q.create () in
  List.iter (Q.add a) [ 1.0; 2.0; 3.0; 4.0 ];
  let empty = Q.create () in
  let m1 = Q.merge a empty in
  let m2 = Q.merge empty a in
  check_int "count survives a+empty" 4 (Q.count m1);
  check_int "count survives empty+a" 4 (Q.count m2);
  check_str "p50 unchanged" (string_of_float (Q.p50 a)) (string_of_float (Q.p50 m1));
  let both_empty = Q.merge (Q.create ()) (Q.create ()) in
  check_int "empty+empty count" 0 (Q.count both_empty);
  check "empty quantile is nan" true (Float.is_nan (Q.p50 both_empty))

let t_quantiles_merge_past_capacity () =
  let a = Q.create ~capacity:8 () in
  let b = Q.create ~capacity:8 () in
  for i = 1 to 100 do
    Q.add a (float_of_int i)
  done;
  for i = 101 to 200 do
    Q.add b (float_of_int i)
  done;
  let m = Q.merge a b in
  check_int "seen counts sum" 200 (Q.count m);
  (* The reservoir holds a sample of both sides, so the median estimate
     must land strictly inside the combined range. *)
  let p50 = Q.p50 m in
  check "median within range" true (p50 >= 1.0 && p50 <= 200.0)

let t_quantiles_seed_determinism () =
  let fill seed =
    let t = Q.create ~capacity:16 ~seed () in
    for i = 0 to 499 do
      Q.add t (float_of_int (i * 7 mod 100))
    done;
    t
  in
  let a = fill 0x51a7 and b = fill 0x51a7 in
  check_str "same seed, same estimate"
    (string_of_float (Q.p95 a))
    (string_of_float (Q.p95 b));
  let m1 = Q.merge a b and m2 = Q.merge a b in
  check_str "merge is deterministic"
    (string_of_float (Q.p95 m1))
    (string_of_float (Q.p95 m2));
  check_int "merged seen" 1000 (Q.count m1)

(* --- Metrics registry -------------------------------------------------- *)

module M = Obs.Metrics

let t_register_idempotent () =
  let m = M.create () in
  let a = M.counter m "hits" ~labels:[ ("shard", "0") ] in
  let b = M.counter m "hits" ~labels:[ ("shard", "0") ] in
  M.incr a;
  M.incr b;
  check_int "one instrument behind both handles" 2 (M.counter_value a);
  (* Label order must not mint a second instrument. *)
  let c = M.counter m "multi" ~labels:[ ("b", "2"); ("a", "1") ] in
  let d = M.counter m "multi" ~labels:[ ("a", "1"); ("b", "2") ] in
  M.incr c;
  check_int "label order canonicalized" 1 (M.counter_value d)

let t_register_type_mismatch () =
  let m = M.create () in
  ignore (M.counter m "x");
  Alcotest.check_raises "counter reused as gauge"
    (Invalid_argument "Obs.Metrics: x{} already registered as a counter") (fun () ->
      ignore (M.gauge m "x"))

let t_counter_monotone () =
  let m = M.create () in
  let c = M.counter m "n" in
  M.add c 5;
  M.add c (-3);
  M.add c 0;
  check_int "negative and zero adds ignored" 5 (M.counter_value c)

let t_snapshot_values () =
  let m = M.create ~clock:(fun () -> sec 2.0) () in
  let c = M.counter m "reqs" ~labels:[ ("class", "sip") ] in
  let g = M.gauge m "occupancy" in
  let h = M.histogram m "lat" in
  M.add c 7;
  M.set g 3.5;
  List.iter (M.observe h) [ 0.001; 0.002; 0.004 ];
  let snap = M.snapshot m in
  check_int "stamped by the virtual clock" (Dsim.Time.to_us (sec 2.0))
    (Dsim.Time.to_us snap.M.at);
  (match M.find snap ~labels:[ ("class", "sip") ] "reqs" with
  | Some (M.Counter 7) -> ()
  | _ -> Alcotest.fail "counter row wrong");
  (match M.find snap "occupancy" with
  | Some (M.Gauge v) -> check "gauge value" true (v = 3.5)
  | _ -> Alcotest.fail "gauge row wrong");
  (match M.find snap "lat" with
  | Some (M.Histogram hs) ->
      check_int "histogram count" 3 hs.M.count;
      check "histogram sum" true (abs_float (hs.M.sum -. 0.007) < 1e-12);
      check_int "bucket total = count" 3 (Array.fold_left ( + ) 0 hs.M.buckets)
  | _ -> Alcotest.fail "histogram row wrong");
  check_int "total sums counter rows" 7 (M.total snap "reqs")

let t_snapshot_isolated () =
  let m = M.create () in
  let c = M.counter m "n" in
  let h = M.histogram m "h" in
  M.incr c;
  M.observe h 1.0;
  let snap = M.snapshot m in
  M.incr c;
  M.observe h 2.0;
  (match M.find snap "n" with
  | Some (M.Counter 1) -> ()
  | _ -> Alcotest.fail "snapshot counter mutated");
  match M.find snap "h" with
  | Some (M.Histogram hs) -> check_int "snapshot histogram frozen" 1 hs.M.count
  | _ -> Alcotest.fail "snapshot histogram mutated"

(* --- Flight recorder ---------------------------------------------------- *)

module Tr = Obs.Trace

let note i = Tr.Note { label = "n"; detail = string_of_int i }

let t_ring_wraparound () =
  let t = Tr.create ~capacity:4 () in
  for i = 0 to 9 do
    Tr.record t ~at:(sec (float_of_int i)) (note i)
  done;
  check_int "recorded counts everything" 10 (Tr.recorded t);
  check_int "capacity" 4 (Tr.capacity t);
  let tail = Tr.entries t in
  check_int "retains last capacity" 4 (List.length tail);
  check_int "oldest retained" 6 (List.hd tail).Tr.seq;
  check_int "newest retained" 9 (List.nth tail 3).Tr.seq;
  (* seq is monotone across the wrap. *)
  let seqs = List.map (fun e -> e.Tr.seq) tail in
  check "oldest-first order" true (seqs = [ 6; 7; 8; 9 ])

let t_ring_under_capacity () =
  let t = Tr.create ~capacity:8 () in
  Tr.record t ~at:(sec 1.0) (note 0);
  Tr.record t ~at:(sec 2.0) (note 1);
  check_int "all retained" 2 (List.length (Tr.entries t));
  Tr.clear t;
  check_int "clear empties" 0 (List.length (Tr.entries t));
  check_int "clear resets recorded" 0 (Tr.recorded t)

let t_ring_capacity_validated () =
  check "zero capacity rejected" true
    (try
       ignore (Tr.create ~capacity:0 ());
       false
     with Invalid_argument _ -> true)

let t_dump_sinks () =
  let t = Tr.create ~capacity:4 () in
  let calls = ref [] in
  Tr.on_dump t (fun ~reason entries -> calls := ("first:" ^ reason, List.length entries) :: !calls);
  (* A sink that throws must not prevent later sinks from running. *)
  Tr.on_dump t (fun ~reason:_ _ -> failwith "bad sink");
  Tr.on_dump t (fun ~reason entries -> calls := ("third:" ^ reason, List.length entries) :: !calls);
  Tr.record t ~at:(sec 1.0) (note 0);
  Tr.record t ~at:(sec 2.0) (note 1);
  let returned = Tr.dump t ~reason:"test" in
  check_int "dump returns the tail" 2 (List.length returned);
  check_int "both healthy sinks ran" 2 (List.length !calls);
  (* Registration order; the list accumulated in reverse. *)
  check_str "first sink first" "first:test" (fst (List.nth !calls 1));
  check_str "third sink after" "third:test" (fst (List.nth !calls 0));
  check_int "ring not cleared by dump" 2 (List.length (Tr.entries t))

let t_entry_json () =
  let e =
    {
      Tr.seq = 3;
      at = Dsim.Time.of_us 1500;
      ev = Tr.Alert { kind = "BYE-DoS"; subject = "call-\"1\"" };
    }
  in
  let s = Tr.entry_to_json e in
  check "seq present" true (String.length s > 0 && String.sub s 0 10 = {|{"seq": 3,|});
  check "quote escaped" true (contains ~needle:{|call-\"1\"|} s)

(* --- Exporters ---------------------------------------------------------- *)

let t_prometheus_format () =
  let m = M.create () in
  let c = M.counter m "vids_packets_total" ~help:"Packets" ~labels:[ ("class", "sip") ] in
  let h = M.histogram m "vids_lat" ~help:"Latency" in
  M.add c 12;
  List.iter (M.observe h) [ 0.5e-6; 3e-6; 1e6 ];
  let text = Obs.Export.prometheus (M.snapshot m) in
  check "help header" true (contains ~needle:"# HELP vids_packets_total Packets" text);
  check "type header" true (contains ~needle:"# TYPE vids_packets_total counter" text);
  check "labeled sample" true (contains ~needle:{|vids_packets_total{class="sip"} 12|} text);
  check "histogram type" true (contains ~needle:"# TYPE vids_lat histogram" text);
  check "inf bucket carries the total" true
    (contains ~needle:{|vids_lat_bucket{le="+Inf"} 3|} text);
  check "count series" true (contains ~needle:"vids_lat_count 3" text);
  check "quantile series" true (contains ~needle:{|vids_lat_quantile{quantile="0.95"}|} text);
  (* Cumulative bucket counts never decrease. *)
  let last = ref (-1) in
  let ok = ref true in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if String.length line > 15 && String.sub line 0 15 = "vids_lat_bucket" then begin
           match String.rindex_opt line ' ' with
           | Some i ->
               let v = int_of_string (String.sub line (i + 1) (String.length line - i - 1)) in
               if v < !last then ok := false;
               last := v
           | None -> ()
         end);
  check "buckets cumulative" true !ok

let t_jsonl_and_json () =
  let m = M.create () in
  M.add (M.counter m "a") 1;
  M.set (M.gauge m "b") 2.0;
  let snap = M.snapshot m in
  let jsonl = Obs.Export.metrics_jsonl snap in
  check_int "one line per row" 2
    (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl)));
  let json = Obs.Export.metrics_json snap in
  check "single object" true (json.[0] = '{' && contains ~needle:{|"metrics"|} json)

let t_write_by_extension () =
  let dir = Filename.temp_file "obs" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let m = M.create () in
  M.add (M.counter m "a" ~help:"A") 1;
  let snap = M.snapshot m in
  let read p =
    let ic = open_in p in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let prom = Filename.concat dir "m.prom" and jsl = Filename.concat dir "m.jsonl" in
  Obs.Export.write_metrics ~path:prom snap;
  Obs.Export.write_metrics ~path:jsl snap;
  check "prom file is exposition text" true (String.sub (read prom) 0 6 = "# HELP");
  check "jsonl file is json" true ((read jsl).[0] = '{');
  let tr = Filename.concat dir "t.jsonl" in
  let entries = [ { Tr.seq = 0; at = sec 1.0; ev = note 0 } ] in
  Obs.Export.append_trace ~reason:"r1" ~path:tr entries;
  Obs.Export.append_trace ~reason:"r2" ~path:tr entries;
  let lines = String.split_on_char '\n' (read tr) |> List.filter (fun l -> l <> "") in
  check_int "two dumps appended" 4 (List.length lines);
  check "dump marker leads" true (contains ~needle:{|"reason": "r1"|} (List.hd lines));
  Sys.remove prom;
  Sys.remove jsl;
  Sys.remove tr;
  Unix.rmdir dir

let t_json_helpers () =
  let module J = Obs.Json in
  check_str "escaping" {|"a\"b\\c\nd"|} (J.quote "a\"b\\c\nd");
  check_str "non-finite floats are null" "null" (J.float nan);
  check_str "finite float round-trips" "0.5" (J.float 0.5);
  check_str "obj" {|{"a": 1}|} (J.obj [ ("a", J.int 1) ])

(* --- Engine integration ------------------------------------------------- *)

let alloc = Dsim.Packet.allocator ()
let sip_addr host = Dsim.Addr.v host 5060

let invite ~call_id =
  Printf.sprintf
    "INVITE sip:bob@b.example SIP/2.0\r\n\
     Via: SIP/2.0/UDP 10.1.0.2:5060;branch=z9hG4bK%s\r\n\
     From: <sip:alice@a.example>;tag=ta-%s\r\n\
     To: <sip:bob@b.example>\r\n\
     Call-ID: %s\r\n\
     CSeq: 1 INVITE\r\n\
     Contact: <sip:alice@10.1.0.10:5060>\r\n\
     \r\n"
    call_id call_id call_id

let rtp_bytes =
  Rtp.Rtp_packet.encode
    (Rtp.Rtp_packet.make ~payload_type:18 ~sequence:1 ~timestamp:0l ~ssrc:7l "x")

(* A small mixed workload: calls, rogue RTP, and junk. *)
let feed_workload sched engine =
  let feed ~src ~dst payload =
    Vids.Engine.process_packet engine
      (Dsim.Packet.make alloc ~src ~dst ~sent_at:(Dsim.Scheduler.now sched) payload)
  in
  for i = 0 to 9 do
    feed ~src:(sip_addr "203.0.113.66") ~dst:(sip_addr "10.2.0.2")
      (invite ~call_id:(Printf.sprintf "obs-%d" i))
  done;
  for i = 0 to 24 do
    feed
      ~src:(Dsim.Addr.v "203.0.113.66" 16400)
      ~dst:(Dsim.Addr.v "10.2.0.10" (20000 + (2 * (i mod 3))))
      rtp_bytes
  done;
  feed ~src:(sip_addr "203.0.113.66") ~dst:(sip_addr "10.2.0.2") "NOT SIP AT ALL"

let run_workload ~telemetry () =
  let sched = Dsim.Scheduler.create () in
  let engine = Vids.Engine.create sched in
  let obs =
    if not telemetry then None
    else begin
      let metrics = M.create () in
      let flight = Tr.create () in
      Vids.Engine.set_telemetry engine ~metrics ~flight ();
      Some (metrics, flight)
    end
  in
  feed_workload sched engine;
  Dsim.Scheduler.run_until sched (sec 30.0);
  (engine, obs)

let t_telemetry_is_write_only () =
  let bare, _ = run_workload ~telemetry:false () in
  let inst, _ = run_workload ~telemetry:true () in
  check_str "digest identical with telemetry on"
    (Vids.Snapshot.digest ~at:(sec 30.0) bare)
    (Vids.Snapshot.digest ~at:(sec 30.0) inst)

let t_counters_match_engine () =
  let engine, obs = run_workload ~telemetry:true () in
  let metrics, flight = Option.get obs in
  let snap = M.snapshot metrics in
  let c = Vids.Engine.counters engine in
  check_int "sip packets" c.Vids.Engine.sip_packets
    (match M.find snap ~labels:[ ("class", "sip") ] "vids_packets_total" with
    | Some (M.Counter n) -> n
    | _ -> -1);
  (match M.find snap ~labels:[ ("class", "rtp") ] "vids_packets_total" with
  | Some (M.Counter n) -> check_int "rtp packets" c.Vids.Engine.rtp_packets n
  | _ -> Alcotest.fail "rtp counter missing");
  (match M.find snap ~labels:[ ("class", "malformed") ] "vids_packets_total" with
  | Some (M.Counter n) -> check_int "malformed packets" c.Vids.Engine.malformed_packets n
  | _ -> Alcotest.fail "malformed counter missing");
  check_int "alerts by kind sum to alerts_raised" c.Vids.Engine.alerts_raised
    (M.total snap "vids_alerts_total");
  (* The pipeline leaves a trail in the flight recorder. *)
  check "flight recorder saw the pipeline" true (Tr.recorded flight > 0);
  (* The engine's virtual clock stamps the snapshot. *)
  check_int "snapshot at engine time" (Dsim.Time.to_us (sec 30.0)) (Dsim.Time.to_us snap.M.at)

let t_quarantine_dumps_flight_recorder () =
  let config = { Vids.Config.default with Vids.Config.chaos_inject_every = 1 } in
  let sched = Dsim.Scheduler.create () in
  let engine = Vids.Engine.create ~config sched in
  let metrics = M.create () in
  let flight = Tr.create () in
  Vids.Engine.set_telemetry engine ~metrics ~flight ();
  let dumps = ref [] in
  Tr.on_dump flight (fun ~reason entries -> dumps := (reason, entries) :: !dumps);
  Vids.Engine.process_packet engine
    (Dsim.Packet.make alloc ~src:(sip_addr "203.0.113.66") ~dst:(sip_addr "10.2.0.2")
       ~sent_at:Dsim.Time.zero
       (invite ~call_id:"boom"));
  check "fault was injected" true ((Vids.Engine.counters engine).Vids.Engine.faults > 0);
  check "quarantine dumped the flight recorder" true (!dumps <> []);
  let reason, entries = List.hd (List.rev !dumps) in
  check "dump names the quarantine" true (contains ~needle:"quarantine" reason);
  check "dump is non-empty" true (entries <> []);
  check_int "faults counted in telemetry" (Vids.Engine.counters engine).Vids.Engine.faults
    (M.total (M.snapshot metrics) "vids_faults_total")

(* --- Hot-path profiler --------------------------------------------------- *)

module P = Obs.Prof

(* Injected clock/alloc pin the measured values, so self-time arithmetic
   is exact: the parent's self excludes the nested child's elapsed. *)
let t_prof_self_time () =
  let now = ref 0.0 and words = ref 0.0 in
  let p = P.create ~clock:(fun () -> !now) ~alloc:(fun () -> !words) () in
  P.enter p P.Drive;
  now := 1.0;
  words := 100.0;
  P.enter p P.Sip_parse;
  now := 3.0;
  words := 400.0;
  P.exit p P.Sip_parse;
  now := 10.0;
  words := 1000.0;
  P.exit p P.Drive;
  check_int "idle depth" 0 (P.depth p);
  let report = P.report_of_snapshot (M.snapshot (P.registry p)) in
  let row name = List.find (fun r -> r.P.r_stage = name) report in
  let drive = row "drive" and sip = row "sip-parse" in
  check_int "one span each" 1 drive.P.r_spans;
  check "child self = its elapsed" true (abs_float (sip.P.r_seconds -. 2.0) < 1e-9);
  check "parent self excludes the child" true (abs_float (drive.P.r_seconds -. 8.0) < 1e-9);
  check "child words" true (abs_float (sip.P.r_words -. 300.0) < 1e-9);
  check "parent words exclude the child" true (abs_float (drive.P.r_words -. 700.0) < 1e-9);
  (* Self times are disjoint, so they sum to the outermost elapsed. *)
  check "self times sum to wall" true (abs_float (P.total_seconds report -. 10.0) < 1e-9);
  check_str "ranked largest first" "drive" (List.hd report).P.r_stage

let t_prof_guards () =
  let zero () = 0.0 in
  let p = P.create ~clock:zero ~alloc:zero () in
  (* Exit on an empty stack, then an exit naming the wrong stage: both
     counted and dropped, neither raises nor accounts a span. *)
  P.exit p P.Detect;
  P.enter p P.Drive;
  P.exit p P.Detect;
  check_int "mismatch still pops" 0 (P.depth p);
  let snap = M.snapshot (P.registry p) in
  check_int "mismatches counted" 2 (M.total snap "vids_prof_mismatch_total");
  check_int "nothing accounted" 0 (M.total snap "vids_stage_spans_total");
  (* Spans beyond the fixed stack depth are counted, not measured. *)
  let p = P.create ~clock:zero ~alloc:zero () in
  for _ = 1 to 20 do
    P.enter p P.Detect
  done;
  for _ = 1 to 20 do
    P.exit p P.Detect
  done;
  let snap = M.snapshot (P.registry p) in
  check_int "overflows counted" 4 (M.total snap "vids_prof_depth_overflow_total");
  check_int "measured spans capped at the stack depth" 16 (M.total snap "vids_stage_spans_total");
  check_int "no mismatches from the unwind" 0 (M.total snap "vids_prof_mismatch_total");
  check_int "depth restored" 0 (P.depth p)

let t_prof_span_protects () =
  let zero () = 0.0 in
  let p = P.create ~clock:zero ~alloc:zero () in
  (try P.span p P.Checkpoint (fun () -> failwith "boom") with Failure _ -> ());
  check_int "popped on raise" 0 (P.depth p);
  let snap = M.snapshot (P.registry p) in
  check_int "span still accounted" 1 (M.total snap "vids_stage_spans_total");
  check_int "no mismatch" 0 (M.total snap "vids_prof_mismatch_total")

let t_prof_stage_names () =
  List.iter
    (fun s ->
      match P.stage_of_name (P.stage_name s) with
      | Some s' -> check ("round-trips: " ^ P.stage_name s) true (s = s')
      | None -> Alcotest.fail ("stage name lost: " ^ P.stage_name s))
    P.all_stages

let t_prof_flight_sampling () =
  let fl = Tr.create ~capacity:8 () in
  let zero () = 0.0 in
  let p = P.create ~flight:fl ~sample_every:1 ~clock:zero ~alloc:zero () in
  P.span p P.Detect (fun () -> ());
  check_int "span sampled into the flight recorder" 1 (Tr.recorded fl);
  match (List.hd (Tr.entries fl)).Tr.ev with
  | Tr.Span { stage; _ } -> check_str "sampled stage name" "detect" stage
  | _ -> Alcotest.fail "expected a span event"

let q_prof_digest_transparent =
  q ~count:25 "prof: profiling is write-only (digest)"
    QCheck.(pair (int_range 0 8) (int_range 0 20))
    (fun (n_calls, n_rtp) ->
      let run profiled =
        let sched = Dsim.Scheduler.create () in
        let engine = Vids.Engine.create sched in
        if profiled then Vids.Engine.set_profiler engine (Some (P.create ()));
        let feed ~src ~dst payload =
          Vids.Engine.process_packet engine
            (Dsim.Packet.make alloc ~src ~dst ~sent_at:(Dsim.Scheduler.now sched) payload)
        in
        for i = 0 to n_calls - 1 do
          feed ~src:(sip_addr "203.0.113.66") ~dst:(sip_addr "10.2.0.2")
            (invite ~call_id:(Printf.sprintf "prof-%d" i))
        done;
        for i = 0 to n_rtp - 1 do
          feed
            ~src:(Dsim.Addr.v "203.0.113.66" 16400)
            ~dst:(Dsim.Addr.v "10.2.0.10" (20000 + (2 * (i mod 3))))
            rtp_bytes
        done;
        Dsim.Scheduler.run_until sched (sec 30.0);
        Vids.Snapshot.digest ~at:(sec 30.0) engine
      in
      String.equal (run false) (run true))

let t_prof_export_formats () =
  let now = ref 0.0 in
  let clock () =
    now := !now +. 0.001;
    !now
  in
  let p = P.create ~clock ~alloc:(fun () -> 0.0) () in
  P.span p P.Sip_parse (fun () -> ());
  P.sample_gc p;
  let snap = M.snapshot (P.registry p) in
  let text = Obs.Export.prometheus snap in
  check "stage histogram exported" true
    (contains ~needle:"# TYPE vids_stage_seconds histogram" text);
  check "stage label on buckets" true
    (contains ~needle:{|vids_stage_seconds_bucket{stage="sip-parse"|} text);
  check "span counter exported" true
    (contains ~needle:{|vids_stage_spans_total{stage="sip-parse"} 1|} text);
  check "gc gauge typed" true (contains ~needle:"# TYPE vids_gc_heap_words gauge" text);
  check "gc gauge sampled" true (contains ~needle:"vids_gc_heap_words " text);
  let jsonl = Obs.Export.metrics_jsonl snap in
  check "jsonl carries the gc gauge" true (contains ~needle:"vids_gc_heap_words" jsonl);
  check "jsonl carries the stage rows" true (contains ~needle:"vids_stage_spans_total" jsonl);
  (* The report JSON names every field the trend gate reads. *)
  let js = P.report_json ~records:10 ~total_s:0.002 (P.report_of_snapshot snap) in
  List.iter
    (fun needle -> check ("report json has " ^ needle) true (contains ~needle js))
    [ {|"stage"|}; {|"spans"|}; {|"self_s"|}; {|"share"|}; {|"bytes_per_record"|} ]

let suite =
  [
    ( "obs.quantiles",
      [
        tc "merge with empty preserves" t_quantiles_merge_empty;
        tc "merge past capacity" t_quantiles_merge_past_capacity;
        tc "seeded determinism" t_quantiles_seed_determinism;
      ] );
    ( "obs.metrics",
      [
        tc "registration idempotent" t_register_idempotent;
        tc "type mismatch rejected" t_register_type_mismatch;
        tc "counters monotone" t_counter_monotone;
        tc "snapshot values" t_snapshot_values;
        tc "snapshot isolated from later writes" t_snapshot_isolated;
      ] );
    ( "obs.trace",
      [
        tc "ring wraparound keeps last N" t_ring_wraparound;
        tc "under capacity + clear" t_ring_under_capacity;
        tc "capacity validated" t_ring_capacity_validated;
        tc "dump sinks isolated and ordered" t_dump_sinks;
        tc "entry json" t_entry_json;
      ] );
    ( "obs.export",
      [
        tc "prometheus exposition" t_prometheus_format;
        tc "jsonl and json" t_jsonl_and_json;
        tc "write picks format by extension" t_write_by_extension;
        tc "json helpers" t_json_helpers;
      ] );
    ( "obs.engine",
      [
        tc "telemetry is write-only (digest)" t_telemetry_is_write_only;
        tc "registry mirrors engine counters" t_counters_match_engine;
        tc "quarantine dumps the flight recorder" t_quarantine_dumps_flight_recorder;
      ] );
    ( "obs.prof",
      [
        tc "self time excludes nested children" t_prof_self_time;
        tc "mismatch and overflow guards" t_prof_guards;
        tc "span pops on raise" t_prof_span_protects;
        tc "stage names round-trip" t_prof_stage_names;
        tc "sampled spans reach the flight recorder" t_prof_flight_sampling;
        q_prof_digest_transparent;
        tc "exports carry stage and gc rows" t_prof_export_formats;
      ] );
  ]
