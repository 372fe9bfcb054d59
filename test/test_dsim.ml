(* Unit tests for the discrete-event simulation substrate. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Time                                                                *)
(* ------------------------------------------------------------------ *)

let time_roundtrip () =
  check_float "1.5s" 1.5 (Dsim.Time.to_sec (Dsim.Time.of_sec 1.5));
  check_int "1ms in us" 1000 (Dsim.Time.of_ms 1.0);
  check_int "of_us identity" 123 (Dsim.Time.of_us 123);
  check_float "to_ms" 2.5 (Dsim.Time.to_ms (Dsim.Time.of_us 2500))

let time_arith () =
  let a = Dsim.Time.of_ms 10.0 and b = Dsim.Time.of_ms 3.0 in
  check_int "add" 13_000 (Dsim.Time.add a b);
  check_int "sub" 7_000 (Dsim.Time.sub a b);
  check "lt" true Dsim.Time.(b < a);
  check "ge" true Dsim.Time.(a >= b);
  check_int "min" 3000 (Dsim.Time.min a b);
  check_int "max" 10_000 (Dsim.Time.max a b)

let time_pp () =
  Alcotest.(check string) "format" "1.500000s" (Format.asprintf "%a" Dsim.Time.pp (Dsim.Time.of_ms 1500.0))

let time_rounding () =
  check_int "rounds to nearest" 1 (Dsim.Time.of_sec 0.0000014);
  check_int "rounds half up" 2 (Dsim.Time.of_sec 0.0000015)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let rng_deterministic () =
  let a = Dsim.Rng.create 1 and b = Dsim.Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Dsim.Rng.bits64 a) (Dsim.Rng.bits64 b)
  done

let rng_seeds_differ () =
  let a = Dsim.Rng.create 1 and b = Dsim.Rng.create 2 in
  check "different seeds" false (Int64.equal (Dsim.Rng.bits64 a) (Dsim.Rng.bits64 b))

let rng_int_bounds () =
  let r = Dsim.Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Dsim.Rng.int r 17 in
    check "in range" true (v >= 0 && v < 17)
  done

let rng_int_rejects_zero () =
  let r = Dsim.Rng.create 3 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Dsim.Rng.int r 0))

let rng_float_bounds () =
  let r = Dsim.Rng.create 4 in
  for _ = 1 to 10_000 do
    let v = Dsim.Rng.float r 2.5 in
    check "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let rng_exponential_mean () =
  let r = Dsim.Rng.create 5 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Dsim.Rng.exponential r 90.0
  done;
  let mean = !sum /. float_of_int n in
  check "mean within 5%" true (Float.abs (mean -. 90.0) < 4.5)

let rng_bool_probability () =
  let r = Dsim.Rng.create 6 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Dsim.Rng.bool r 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  check "p within 0.29..0.31" true (p > 0.29 && p < 0.31)

let rng_split_independent () =
  let parent = Dsim.Rng.create 7 in
  let child = Dsim.Rng.split parent in
  check "child differs from parent stream" false
    (Int64.equal (Dsim.Rng.bits64 parent) (Dsim.Rng.bits64 child))

let rng_pick () =
  let r = Dsim.Rng.create 8 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 100 do
    check "picks member" true (Array.mem (Dsim.Rng.pick r arr) arr)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Dsim.Rng.pick r [||]))

let rng_uniform_range () =
  let r = Dsim.Rng.create 9 in
  for _ = 1 to 1000 do
    let v = Dsim.Rng.uniform r 2.0 5.0 in
    check "in range" true (v >= 2.0 && v < 5.0)
  done

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let heap_sorts () =
  let h = Dsim.Heap.create ~cmp:Int.compare in
  List.iter (Dsim.Heap.push h) [ 5; 1; 4; 1; 5; 9; 2; 6 ];
  let rec drain acc =
    match Dsim.Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 4; 5; 5; 6; 9 ] (drain [])

let heap_empty () =
  let h = Dsim.Heap.create ~cmp:Int.compare in
  check "is_empty" true (Dsim.Heap.is_empty h);
  check "pop none" true (Dsim.Heap.pop h = None);
  check "peek none" true (Dsim.Heap.peek h = None)

let heap_peek_not_removing () =
  let h = Dsim.Heap.create ~cmp:Int.compare in
  Dsim.Heap.push h 3;
  check "peek" true (Dsim.Heap.peek h = Some 3);
  check_int "length unchanged" 1 (Dsim.Heap.length h)

let heap_large () =
  let h = Dsim.Heap.create ~cmp:Int.compare in
  let r = Dsim.Rng.create 10 in
  for _ = 1 to 10_000 do
    Dsim.Heap.push h (Dsim.Rng.int r 1_000_000)
  done;
  let rec drain last n =
    match Dsim.Heap.pop h with
    | None -> n
    | Some x ->
        check "non-decreasing" true (x >= last);
        drain x (n + 1)
  in
  check_int "all popped" 10_000 (drain min_int 0)

let heap_clear () =
  let h = Dsim.Heap.create ~cmp:Int.compare in
  Dsim.Heap.push h 1;
  Dsim.Heap.clear h;
  check "empty after clear" true (Dsim.Heap.is_empty h)

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

let sched_orders_events () =
  let s = Dsim.Scheduler.create () in
  let log = ref [] in
  ignore (Dsim.Scheduler.schedule_at s 300 (fun () -> log := 3 :: !log));
  ignore (Dsim.Scheduler.schedule_at s 100 (fun () -> log := 1 :: !log));
  ignore (Dsim.Scheduler.schedule_at s 200 (fun () -> log := 2 :: !log));
  Dsim.Scheduler.run s;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  check_int "clock at last event" 300 (Dsim.Scheduler.now s)

let sched_fifo_at_same_time () =
  let s = Dsim.Scheduler.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Dsim.Scheduler.schedule_at s 50 (fun () -> log := i :: !log))
  done;
  Dsim.Scheduler.run s;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let sched_cancel () =
  let s = Dsim.Scheduler.create () in
  let fired = ref false in
  let timer = Dsim.Scheduler.schedule_at s 10 (fun () -> fired := true) in
  Dsim.Scheduler.cancel timer;
  check "is_cancelled" true (Dsim.Scheduler.is_cancelled timer);
  Dsim.Scheduler.run s;
  check "not fired" false !fired

let sched_cancel_idempotent () =
  let s = Dsim.Scheduler.create () in
  let timer = Dsim.Scheduler.schedule_at s 10 (fun () -> ()) in
  Dsim.Scheduler.cancel timer;
  Dsim.Scheduler.cancel timer;
  check_int "pending count stable" 0 (Dsim.Scheduler.pending s)

let sched_past_rejected () =
  let s = Dsim.Scheduler.create () in
  ignore (Dsim.Scheduler.schedule_at s 100 (fun () -> ()));
  Dsim.Scheduler.run s;
  check "raises" true
    (try
       ignore (Dsim.Scheduler.schedule_at s 50 (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let sched_run_until () =
  let s = Dsim.Scheduler.create () in
  let fired = ref [] in
  ignore (Dsim.Scheduler.schedule_at s 100 (fun () -> fired := 100 :: !fired));
  ignore (Dsim.Scheduler.schedule_at s 200 (fun () -> fired := 200 :: !fired));
  Dsim.Scheduler.run_until s 150;
  Alcotest.(check (list int)) "only first" [ 100 ] !fired;
  check_int "clock advanced to limit" 150 (Dsim.Scheduler.now s);
  Dsim.Scheduler.run_until s 250;
  Alcotest.(check (list int)) "second fired" [ 200; 100 ] !fired

let sched_nested_scheduling () =
  let s = Dsim.Scheduler.create () in
  let log = ref [] in
  ignore
    (Dsim.Scheduler.schedule_at s 10 (fun () ->
         log := "outer" :: !log;
         ignore (Dsim.Scheduler.schedule_after s 5 (fun () -> log := "inner" :: !log))));
  Dsim.Scheduler.run s;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  check_int "final clock" 15 (Dsim.Scheduler.now s)

let sched_pending () =
  let s = Dsim.Scheduler.create () in
  let t1 = Dsim.Scheduler.schedule_at s 10 (fun () -> ()) in
  ignore (Dsim.Scheduler.schedule_at s 20 (fun () -> ()));
  check_int "two pending" 2 (Dsim.Scheduler.pending s);
  Dsim.Scheduler.cancel t1;
  check_int "one pending" 1 (Dsim.Scheduler.pending s);
  Dsim.Scheduler.run s;
  check_int "none pending" 0 (Dsim.Scheduler.pending s)

let ms = Dsim.Time.of_ms
let time = Alcotest.testable Dsim.Time.pp Dsim.Time.equal

let advance_to_semantics () =
  let sched = Dsim.Scheduler.create () in
  let fired = ref [] in
  let note name () = fired := name :: !fired in
  ignore (Dsim.Scheduler.schedule_at sched (ms 10.) (note "a"));
  ignore (Dsim.Scheduler.schedule_at sched (ms 20.) (note "b"));
  ignore (Dsim.Scheduler.schedule_at sched (ms 30.) (note "c"));
  Dsim.Scheduler.advance_to sched (ms 20.);
  (* Strictly-earlier timers fire; the timer at exactly the target stays
     pending (same-instant packets beat timers). *)
  Alcotest.(check (list string)) "only earlier timers" [ "a" ] (List.rev !fired);
  Alcotest.(check time) "clock at target" (ms 20.) (Dsim.Scheduler.now sched);
  Dsim.Scheduler.run sched;
  Alcotest.(check (list string)) "rest fire in order" [ "a"; "b"; "c" ] (List.rev !fired)

(* ------------------------------------------------------------------ *)
(* Stat                                                                *)
(* ------------------------------------------------------------------ *)

let summary_moments () =
  let s = Dsim.Stat.Summary.create () in
  List.iter (Dsim.Stat.Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_float "mean" 5.0 (Dsim.Stat.Summary.mean s);
  check_int "count" 8 (Dsim.Stat.Summary.count s);
  check_float "min" 2.0 (Dsim.Stat.Summary.min s);
  check_float "max" 9.0 (Dsim.Stat.Summary.max s);
  Alcotest.(check (float 1e-6)) "sample variance" (32.0 /. 7.0) (Dsim.Stat.Summary.variance s)

let summary_empty () =
  let s = Dsim.Stat.Summary.create () in
  check_float "mean 0" 0.0 (Dsim.Stat.Summary.mean s);
  check_float "variance 0" 0.0 (Dsim.Stat.Summary.variance s)

let series_order_and_summary () =
  let s = Dsim.Stat.Series.create ~name:"x" in
  Dsim.Stat.Series.add s 100 1.0;
  Dsim.Stat.Series.add s 200 3.0;
  Alcotest.(check (list (pair int (float 0.0))))
    "in order"
    [ (100, 1.0); (200, 3.0) ]
    (Dsim.Stat.Series.to_list s);
  check_float "summary mean" 2.0 (Dsim.Stat.Summary.mean (Dsim.Stat.Series.summary s))

let series_bucket_mean () =
  let s = Dsim.Stat.Series.create ~name:"x" in
  Dsim.Stat.Series.add s 100 1.0;
  Dsim.Stat.Series.add s 900 3.0;
  Dsim.Stat.Series.add s 1500 10.0;
  Alcotest.(check (list (pair int (float 0.0))))
    "bucketed"
    [ (0, 2.0); (1000, 10.0) ]
    (Dsim.Stat.Series.bucket_mean s ~bucket:1000)

let percentile_basics () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "p0" 1.0 (Dsim.Stat.percentile xs 0.0);
  check_float "p50" 3.0 (Dsim.Stat.percentile xs 50.0);
  check_float "p100" 5.0 (Dsim.Stat.percentile xs 100.0);
  check_float "p25" 2.0 (Dsim.Stat.percentile xs 25.0);
  check "nan on empty" true (Float.is_nan (Dsim.Stat.percentile [||] 50.0))

let histogram_basics () =
  let h = Dsim.Stat.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  List.iter (Dsim.Stat.Histogram.add h) [ 0.5; 1.5; 2.5; 2.9; 9.9; -3.0; 42.0 ];
  check_int "count" 7 (Dsim.Stat.Histogram.count h);
  (match Dsim.Stat.Histogram.bins h with
  | [ (_, _, b0); (_, _, b1); _; _; (_, _, b4) ] ->
      check_int "first bin catches underflow" 3 b0;
      check_int "second bin" 2 b1;
      check_int "last bin catches overflow" 2 b4
  | _ -> Alcotest.fail "expected 5 bins");
  check "renders" true (String.length (Format.asprintf "%a" Dsim.Stat.Histogram.pp h) > 0);
  check "bad args" true
    (try
       ignore (Dsim.Stat.Histogram.create ~lo:1.0 ~hi:1.0 ~bins:3);
       false
     with Invalid_argument _ -> true)

let counter_ops () =
  let c = Dsim.Stat.Counter.create () in
  Dsim.Stat.Counter.incr c;
  Dsim.Stat.Counter.add c 5;
  check_int "value" 6 (Dsim.Stat.Counter.get c)

let quantiles_exact_and_merged () =
  let qt = Dsim.Stat.Quantiles.create () in
  for i = 1 to 100 do
    Dsim.Stat.Quantiles.add qt (float_of_int i)
  done;
  Alcotest.(check (float 1.0)) "p50" 50.0 (Dsim.Stat.Quantiles.p50 qt);
  Alcotest.(check (float 1.0)) "p95" 95.0 (Dsim.Stat.Quantiles.p95 qt);
  Alcotest.(check (float 1.0)) "p99" 99.0 (Dsim.Stat.Quantiles.p99 qt);
  let a = Dsim.Stat.Quantiles.create () and b = Dsim.Stat.Quantiles.create () in
  for i = 1 to 50 do
    Dsim.Stat.Quantiles.add a (float_of_int i);
    Dsim.Stat.Quantiles.add b (float_of_int (50 + i))
  done;
  let m = Dsim.Stat.Quantiles.merge a b in
  Alcotest.(check int) "merged count" 100 (Dsim.Stat.Quantiles.count m);
  Alcotest.(check (float 1.0)) "merged p50" 50.0 (Dsim.Stat.Quantiles.p50 m)

(* ------------------------------------------------------------------ *)
(* Network                                                             *)
(* ------------------------------------------------------------------ *)

let two_node_net () =
  let sched = Dsim.Scheduler.create () in
  let net = Dsim.Network.create sched (Dsim.Rng.create 1) in
  let a = Dsim.Network.add_node net ~name:"a" ~hosts:[ "10.0.0.1" ] in
  let b = Dsim.Network.add_node net ~name:"b" ~hosts:[ "10.0.0.2" ] in
  Dsim.Network.connect net a b ~rate_bps:1e6 ~prop_delay:(Dsim.Time.of_ms 10.0) ~loss_prob:0.0;
  (sched, net, a, b)

let net_delivers () =
  let sched, net, a, b = two_node_net () in
  let got = ref None in
  Dsim.Network.set_handler b (fun p -> got := Some p);
  let packet =
    Dsim.Network.make_packet net ~src:(Dsim.Addr.v "10.0.0.1" 1000)
      ~dst:(Dsim.Addr.v "10.0.0.2" 2000) "hello"
  in
  Dsim.Network.send net ~from:a packet;
  Dsim.Scheduler.run sched;
  (match !got with
  | None -> Alcotest.fail "not delivered"
  | Some p -> Alcotest.(check string) "payload" "hello" p.Dsim.Packet.payload);
  check_int "delivered count" 1 (Dsim.Network.packets_delivered net)

let net_delay_model () =
  let sched, net, a, b = two_node_net () in
  let arrival = ref 0 in
  Dsim.Network.set_handler b (fun _ -> arrival := Dsim.Scheduler.now sched);
  let payload = String.make 97 'x' in
  (* 125 bytes with overhead = 1000 bits at 1 Mbps = 1 ms tx + 10 ms prop. *)
  let packet =
    Dsim.Network.make_packet net ~src:(Dsim.Addr.v "10.0.0.1" 1) ~dst:(Dsim.Addr.v "10.0.0.2" 2)
      payload
  in
  Dsim.Network.send net ~from:a packet;
  Dsim.Scheduler.run sched;
  check_int "tx + prop" (Dsim.Time.of_ms 11.0) !arrival

let net_serialization_queueing () =
  let sched, net, a, b = two_node_net () in
  let arrivals = ref [] in
  Dsim.Network.set_handler b (fun _ -> arrivals := Dsim.Scheduler.now sched :: !arrivals);
  let payload = String.make 97 'x' in
  for _ = 1 to 2 do
    let packet =
      Dsim.Network.make_packet net ~src:(Dsim.Addr.v "10.0.0.1" 1)
        ~dst:(Dsim.Addr.v "10.0.0.2" 2) payload
    in
    Dsim.Network.send net ~from:a packet
  done;
  Dsim.Scheduler.run sched;
  (* Second packet waits for the first transmission to finish. *)
  Alcotest.(check (list int))
    "arrivals"
    [ Dsim.Time.of_ms 12.0; Dsim.Time.of_ms 11.0 ]
    !arrivals

let net_loss () =
  let sched = Dsim.Scheduler.create () in
  let net = Dsim.Network.create sched (Dsim.Rng.create 1) in
  let a = Dsim.Network.add_node net ~name:"a" ~hosts:[ "h1" ] in
  let b = Dsim.Network.add_node net ~name:"b" ~hosts:[ "h2" ] in
  Dsim.Network.connect net a b ~rate_bps:0.0 ~prop_delay:0 ~loss_prob:0.5;
  let received = ref 0 in
  Dsim.Network.set_handler b (fun _ -> incr received);
  for _ = 1 to 1000 do
    Dsim.Network.send net ~from:a
      (Dsim.Network.make_packet net ~src:(Dsim.Addr.v "h1" 1) ~dst:(Dsim.Addr.v "h2" 1) "x")
  done;
  Dsim.Scheduler.run sched;
  check "about half lost" true (!received > 400 && !received < 600);
  check_int "conservation" 1000 (!received + Dsim.Network.packets_dropped net)

let net_multihop_and_tap () =
  let sched = Dsim.Scheduler.create () in
  let net = Dsim.Network.create sched (Dsim.Rng.create 1) in
  let a = Dsim.Network.add_node net ~name:"a" ~hosts:[ "h1" ] in
  let mid = Dsim.Network.add_node net ~name:"mid" ~hosts:[] in
  let b = Dsim.Network.add_node net ~name:"b" ~hosts:[ "h2" ] in
  Dsim.Network.connect net a mid ~rate_bps:0.0 ~prop_delay:(Dsim.Time.of_ms 1.0) ~loss_prob:0.0;
  Dsim.Network.connect net mid b ~rate_bps:0.0 ~prop_delay:(Dsim.Time.of_ms 1.0) ~loss_prob:0.0;
  let tapped = ref 0 and delivered = ref false in
  Dsim.Network.set_tap mid (Some (fun _ -> incr tapped));
  Dsim.Network.set_handler b (fun _ -> delivered := true);
  Dsim.Network.send net ~from:a
    (Dsim.Network.make_packet net ~src:(Dsim.Addr.v "h1" 1) ~dst:(Dsim.Addr.v "h2" 1) "x");
  Dsim.Scheduler.run sched;
  check "delivered over two hops" true !delivered;
  check_int "tap saw transit packet" 1 !tapped

let net_transit_delay () =
  let sched = Dsim.Scheduler.create () in
  let net = Dsim.Network.create sched (Dsim.Rng.create 1) in
  let a = Dsim.Network.add_node net ~name:"a" ~hosts:[ "h1" ] in
  let mid = Dsim.Network.add_node net ~name:"mid" ~hosts:[] in
  let b = Dsim.Network.add_node net ~name:"b" ~hosts:[ "h2" ] in
  Dsim.Network.connect net a mid ~rate_bps:0.0 ~prop_delay:0 ~loss_prob:0.0;
  Dsim.Network.connect net mid b ~rate_bps:0.0 ~prop_delay:0 ~loss_prob:0.0;
  Dsim.Network.set_transit_delay mid (Some (fun _ -> Dsim.Time.of_ms 50.0));
  let at = ref 0 in
  Dsim.Network.set_handler b (fun _ -> at := Dsim.Scheduler.now sched);
  Dsim.Network.send net ~from:a
    (Dsim.Network.make_packet net ~src:(Dsim.Addr.v "h1" 1) ~dst:(Dsim.Addr.v "h2" 1) "x");
  Dsim.Scheduler.run sched;
  check_int "50ms added" (Dsim.Time.of_ms 50.0) !at

let net_unroutable_drops () =
  let sched, net, a, _ = two_node_net () in
  Dsim.Network.send net ~from:a
    (Dsim.Network.make_packet net ~src:(Dsim.Addr.v "10.0.0.1" 1)
       ~dst:(Dsim.Addr.v "unknown-host" 1) "x");
  Dsim.Scheduler.run sched;
  check_int "dropped" 1 (Dsim.Network.packets_dropped net)

let net_duplicate_host_rejected () =
  let sched = Dsim.Scheduler.create () in
  let net = Dsim.Network.create sched (Dsim.Rng.create 1) in
  ignore (Dsim.Network.add_node net ~name:"a" ~hosts:[ "h1" ]);
  check "raises" true
    (try
       ignore (Dsim.Network.add_node net ~name:"b" ~hosts:[ "h1" ]);
       false
     with Invalid_argument _ -> true)

let net_link_stats () =
  let sched, net, a, b = two_node_net () in
  Dsim.Network.set_handler b (fun _ -> ());
  for _ = 1 to 3 do
    Dsim.Network.send net ~from:a
      (Dsim.Network.make_packet net ~src:(Dsim.Addr.v "10.0.0.1" 1)
         ~dst:(Dsim.Addr.v "10.0.0.2" 2) "xx")
  done;
  Dsim.Scheduler.run sched;
  let stats = Dsim.Network.link_stats net in
  check_int "two directions" 2 (List.length stats);
  let a_to_b =
    List.find (fun ls -> ls.Dsim.Network.from_node = "a") stats
  in
  check_int "packets counted" 3 a_to_b.Dsim.Network.tx_packets;
  check_int "bytes counted" 90 a_to_b.Dsim.Network.tx_bytes;
  check_int "no loss" 0 a_to_b.Dsim.Network.lost_packets;
  let b_to_a = List.find (fun ls -> ls.Dsim.Network.from_node = "b") stats in
  check_int "idle direction" 0 b_to_a.Dsim.Network.tx_packets

let addr_parse () =
  (match Dsim.Addr.of_string "10.0.0.1:5060" with
  | Some a ->
      Alcotest.(check string) "host" "10.0.0.1" (Dsim.Addr.host a);
      check_int "port" 5060 (Dsim.Addr.port a)
  | None -> Alcotest.fail "should parse");
  check "no port" true (Dsim.Addr.of_string "10.0.0.1" = None);
  check "bad port" true (Dsim.Addr.of_string "h:xx" = None);
  check "empty host" true (Dsim.Addr.of_string ":80" = None)

let tc name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "dsim.time",
      [
        tc "roundtrip" time_roundtrip;
        tc "arithmetic" time_arith;
        tc "pretty-print" time_pp;
        tc "rounding" time_rounding;
      ] );
    ( "dsim.rng",
      [
        tc "deterministic" rng_deterministic;
        tc "seeds differ" rng_seeds_differ;
        tc "int bounds" rng_int_bounds;
        tc "int rejects zero" rng_int_rejects_zero;
        tc "float bounds" rng_float_bounds;
        tc "exponential mean" rng_exponential_mean;
        tc "bool probability" rng_bool_probability;
        tc "split independence" rng_split_independent;
        tc "pick" rng_pick;
        tc "uniform range" rng_uniform_range;
      ] );
    ( "dsim.heap",
      [
        tc "sorts" heap_sorts;
        tc "empty" heap_empty;
        tc "peek" heap_peek_not_removing;
        tc "large random" heap_large;
        tc "clear" heap_clear;
      ] );
    ( "dsim.scheduler",
      [
        tc "orders events" sched_orders_events;
        tc "fifo at same time" sched_fifo_at_same_time;
        tc "cancel" sched_cancel;
        tc "cancel idempotent" sched_cancel_idempotent;
        tc "past rejected" sched_past_rejected;
        tc "run_until" sched_run_until;
        tc "nested scheduling" sched_nested_scheduling;
        tc "pending count" sched_pending;
        tc "advance_to: earlier only" advance_to_semantics;
      ] );
    ( "dsim.stat",
      [
        tc "summary moments" summary_moments;
        tc "summary empty" summary_empty;
        tc "series order" series_order_and_summary;
        tc "series bucket mean" series_bucket_mean;
        tc "percentile" percentile_basics;
        tc "histogram" histogram_basics;
        tc "counter" counter_ops;
        tc "quantiles exact, merged" quantiles_exact_and_merged;
      ] );
    ( "dsim.network",
      [
        tc "delivers" net_delivers;
        tc "delay model" net_delay_model;
        tc "serialization queueing" net_serialization_queueing;
        tc "bernoulli loss" net_loss;
        tc "multihop + tap" net_multihop_and_tap;
        tc "transit delay" net_transit_delay;
        tc "unroutable drops" net_unroutable_drops;
        tc "link stats" net_link_stats;
        tc "duplicate host rejected" net_duplicate_host_rejected;
        tc "addr parse" addr_parse;
      ] );
  ]
