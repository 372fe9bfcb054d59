(* The sensor benchmark's replay program.

   [sensor_bench gen] writes a workload's capture and its oracle;
   [sensor_bench run] replays the capture through a fresh sensor per pass
   with the daemon's per-record discipline — [Ingest.Pcap.next], then
   [Dsim.Scheduler.advance_to] the record's rebased time, then
   [Enforce.Enforcer.ingest] or [Vids.Engine.process_packet] — in a
   closed loop: each record goes in only after the previous one returns.
   Generation runs in its own process so the generator's heap never shows
   in the sensor's peak-heap figure.

   Untraced runs report the end-to-end metrics.  Traced runs put spans
   around each call this file makes into a layer and report the per-layer
   metrics; nothing inside the sensor is instrumented.  Both print one
   line of run facts (seed, record mix, GC settings, digests, oracle
   verdict) and then the result object as the last line. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let word_bytes = Sys.word_size / 8
let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("sensor_bench: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Capture + oracle files                                              *)
(* ------------------------------------------------------------------ *)

type meta = {
  enforce : bool;
  malformed : int;
  peak : int;
  n_records : int;
  oracle : (Vids.Alert.kind * string) list;
  benign : string;  (** One '1' or '0' per record. *)
}

let capture_path dir w = Filename.concat dir (w ^ ".pcap")
let meta_path dir w = Filename.concat dir (w ^ ".oracle")

let write_meta path (g : Gen.t) =
  let oc = open_out_bin path in
  Printf.fprintf oc "enforce %b\nmalformed %d\npeak %d\nrecords %d\n" g.Gen.enforce g.Gen.malformed
    g.Gen.peak (Array.length g.Gen.records);
  List.iter
    (fun (k, s) -> Printf.fprintf oc "expect %s %s\n" (Vids.Alert.kind_to_string k) s)
    g.Gen.oracle;
  Printf.fprintf oc "benign %s\n"
    (String.init (Array.length g.Gen.benign) (fun i -> if g.Gen.benign.(i) then '1' else '0'));
  close_out oc

let read_meta path =
  let ic = try open_in_bin path with Sys_error e -> fail "%s" e in
  let m =
    ref { enforce = false; malformed = 0; peak = 0; n_records = 0; oracle = []; benign = "" }
  in
  (try
     while true do
       let line = input_line ic in
       match String.index_opt line ' ' with
       | None -> fail "bad oracle line %S" line
       | Some i -> (
           let v = String.sub line (i + 1) (String.length line - i - 1) in
           match String.sub line 0 i with
           | "enforce" -> m := { !m with enforce = bool_of_string v }
           | "malformed" -> m := { !m with malformed = int_of_string v }
           | "peak" -> m := { !m with peak = int_of_string v }
           | "records" -> m := { !m with n_records = int_of_string v }
           | "benign" -> m := { !m with benign = v }
           | "expect" -> (
               match String.index_opt v ' ' with
               | Some j -> (
                   match Vids.Alert.kind_of_string (String.sub v 0 j) with
                   | Some k ->
                       let s = String.sub v (j + 1) (String.length v - j - 1) in
                       m := { !m with oracle = (k, s) :: !m.oracle }
                   | None -> fail "bad alert kind in %S" line)
               | None -> fail "bad expect line %S" line)
           | _ -> fail "bad oracle line %S" line)
     done
   with End_of_file -> close_in ic);
  let m = !m in
  if String.length m.benign <> m.n_records then fail "oracle and capture disagree on length";
  { m with oracle = List.sort_uniq compare m.oracle }

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* Span names.  The engine call is split by [Classifier.quick_protocol];
   a gate call that returns false is relabelled [s_drop]. *)
let s_next = 0
let s_advance = 1
let s_sip = 2
let s_media = 3
let s_other = 4
let s_drop = 5
let s_capture = 6
let s_to_string = 7

let span_names =
  [| "pcap.next"; "scheduler.advance_to"; "ingest.sip"; "ingest.media"; "ingest.other";
     "enforcer.ingest.drop"; "snapshot.capture"; "snapshot.to_string" |]

(* Kept in flat arrays sized up front, so recording a span allocates
   nothing; [words] holds minor-heap words allocated inside the span. *)
type spans = {
  mutable n : int;
  mutable cur : int;
  name : int array;
  start : int array;
  stop : int array;
  parent : int array;
  id : int array;
  words : int array;
}

let spans_create cap =
  let a () = Array.make cap 0 in
  { n = 0; cur = -1; name = a (); start = a (); stop = a (); parent = a (); id = a (); words = a () }

let minor () = int_of_float (Gc.minor_words ())

let enter sp name id =
  let i = sp.n in
  if i >= Array.length sp.name then fail "span buffer overflow";
  sp.n <- i + 1;
  sp.name.(i) <- name;
  sp.parent.(i) <- sp.cur;
  sp.id.(i) <- id;
  sp.cur <- i;
  sp.words.(i) <- minor ();
  sp.start.(i) <- now_ns ();
  i

let leave sp i =
  sp.stop.(i) <- now_ns ();
  sp.words.(i) <- minor () - sp.words.(i);
  sp.cur <- sp.parent.(i)

let write_spans path sp =
  let oc = open_out_bin path in
  output_string oc "span\tname\tstart_ns\tend_ns\tparent\trecord\tminor_words\n";
  for i = 0 to sp.n - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\t%d\n" i span_names.(sp.name.(i)) sp.start.(i)
      sp.stop.(i) sp.parent.(i) sp.id.(i) sp.words.(i)
  done;
  close_out oc

(* ------------------------------------------------------------------ *)
(* The sensor                                                          *)
(* ------------------------------------------------------------------ *)

type sensor = {
  sched : Dsim.Scheduler.t;
  engine : Vids.Engine.t;
  gate : Enforce.Enforcer.t option;
  journal : Vids.Journal.writer option;
  mutable snaps : (float * int * int) list;  (** ms, bytes, active calls *)
}

let snapshot ?sp s =
  let at = Dsim.Scheduler.now s.sched in
  let seq = List.length s.snaps + 1 in
  let ext =
    match s.gate with
    | None -> []
    | Some g -> [ (Enforce.Enforcer.ext_tag, Enforce.Enforcer.snapshot_payload g) ]
  in
  (* A checkpoint fired inside [advance_to] shares the id of the record
     being advanced to; one taken after a pass has id -1. *)
  let span name f =
    match sp with
    | None -> f ()
    | Some sp ->
        let k = enter sp name (if sp.cur >= 0 then sp.id.(sp.cur) else -1) in
        let r = f () in
        leave sp k;
        r
  in
  let t0 = now_ns () in
  let snap = span s_capture (fun () -> Vids.Snapshot.capture ~seq ~ext ~at s.engine) in
  let text = span s_to_string (fun () -> Vids.Snapshot.to_string snap) in
  let ms = float_of_int (now_ns () - t0) /. 1e6 in
  let calls = (Vids.Engine.memory_stats s.engine).Vids.Fact_base.active_calls in
  s.snaps <- (ms, String.length text, calls) :: s.snaps;
  Option.iter (fun w -> Vids.Journal.append w (Vids.Journal.Checkpoint { at; seq })) s.journal

(* Engine, enforcer and journal writer as the daemon builds them in
   prevention mode; the checkpoint grid is the daemon's default period,
   captured in memory ([Snapshot.save] would measure the disk). *)
let build ~(meta : meta) ~journal_path ~(sp : spans option) =
  let sched = Dsim.Scheduler.create () in
  let engine = Vids.Engine.create sched in
  if not meta.enforce then { sched; engine; gate = None; journal = None; snaps = [] }
  else begin
    if Sys.file_exists journal_path then Sys.remove journal_path;
    let w = Vids.Journal.create_writer journal_path in
    Vids.Journal.attach w engine;
    let gate = Enforce.Enforcer.create ~journal:(Vids.Journal.append w) sched engine in
    let s = { sched; engine; gate = Some gate; journal = Some w; snaps = [] } in
    let period = Dsim.Time.of_sec Ingest.Daemon.default.Ingest.Daemon.checkpoint_every_s in
    let rec arm t =
      ignore
        (Dsim.Scheduler.schedule_at sched t (fun () ->
             snapshot ?sp s;
             arm (Dsim.Time.add t period)))
    in
    arm period;
    s
  end

let close s = Option.iter Vids.Journal.close_writer s.journal

(* ------------------------------------------------------------------ *)
(* One pass                                                            *)
(* ------------------------------------------------------------------ *)

type pass = {
  wall_s : float;  (** Record loop only; the peak-heap pause is excluded. *)
  lat_ns : int array;  (** Per record. *)
  retained_per_call : float;
  failed : int;
  missed : int;
  spurious : int;
  false_blocks : int;
  digest : string;
  alert_digest : string;
  classes : int * int * int;  (** sip, media, other *)
  gc_alloc_words : float;
  gc_minor : int;
  gc_major : int;
  calls_peak : int;
  detectors_peak : int;
  reported_per_call : float;
  dropped : int;
  rules : int;
  pending_peak : int;
}

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (Float.of_int n *. p)))

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let run_pass ?(with_digest = false) ~meta ~capture ~journal_path ~(lat : int array) ~(sp : spans option) () =
  let ic = open_in_bin capture in
  let reader =
    match Ingest.Pcap.of_channel ic with Ok r -> r | Error e -> fail "%s: %s" capture e
  in
  let s = build ~meta ~journal_path ~sp in
  Option.iter (fun sp -> sp.n <- 0; sp.cur <- -1) sp;
  let alloc = Dsim.Packet.allocator () in
  let base_live = live_words () in
  let peak_live = ref base_live and peak_calls = ref 0 in
  let stats_at_peak = ref (Vids.Engine.memory_stats s.engine) in
  let pause = ref 0 and pause_majors = ref 0 in
  let base_at = ref None in
  let n = ref 0 and false_blocks = ref 0 and pending_peak = ref 0 in
  let sip = ref 0 and media = ref 0 and other = ref 0 in
  let q0 = Gc.quick_stat () and a0 = alloc_words () in
  let t_start = now_ns () in
  let continue = ref true in
  while !continue do
    let i = !n in
    let k = match sp with Some sp -> enter sp s_next i | None -> 0 in
    let item = Ingest.Pcap.next reader in
    Option.iter (fun sp -> leave sp k) sp;
    match item with
    | None -> continue := false
    | Some (Ingest.Pcap.Skipped why) -> fail "capture record %d skipped: %s" i why
    | Some (Ingest.Pcap.Record r) ->
        let held = now_ns () in
        (* Rebased onto the first record, as the daemon does. *)
        let base = Option.value !base_at ~default:r.Vids.Trace.at in
        base_at := Some base;
        let at = Dsim.Time.max (Dsim.Time.sub r.Vids.Trace.at base) (Dsim.Scheduler.now s.sched) in
        let k = match sp with Some sp -> enter sp s_advance i | None -> 0 in
        Dsim.Scheduler.advance_to s.sched at;
        Option.iter (fun sp -> leave sp k) sp;
        let pkt =
          Dsim.Packet.make alloc ~src:r.Vids.Trace.src ~dst:r.Vids.Trace.dst ~sent_at:at
            r.Vids.Trace.payload
        in
        let cls =
          match Vids.Classifier.quick_protocol pkt with
          | `Sip -> incr sip; s_sip
          | `Media -> incr media; s_media
          | `Other -> incr other; s_other
        in
        let k = match sp with Some sp -> enter sp cls i | None -> 0 in
        let delivered =
          match s.gate with
          | Some g -> Enforce.Enforcer.ingest g pkt
          | None -> Vids.Engine.process_packet s.engine pkt; true
        in
        (match sp with
        | Some sp ->
            leave sp k;
            if not delivered then sp.name.(k) <- s_drop;
            pending_peak := max !pending_peak (Dsim.Scheduler.pending s.sched)
        | None -> ());
        lat.(i) <- now_ns () - held;
        if (not delivered) && meta.benign.[i] = '1' then incr false_blocks;
        n := i + 1;
        if !n = meta.peak then begin
          let p0 = now_ns () and g0 = Gc.quick_stat () in
          peak_live := live_words ();
          stats_at_peak := Vids.Engine.memory_stats s.engine;
          peak_calls := !stats_at_peak.Vids.Fact_base.active_calls;
          pause_majors := (Gc.quick_stat ()).Gc.major_collections - g0.Gc.major_collections;
          pause := !pause + (now_ns () - p0)
        end
  done;
  let wall_ns = now_ns () - t_start - !pause in
  let q1 = Gc.quick_stat () and a1 = alloc_words () in
  close_in ic;
  if !n <> meta.n_records then fail "replayed %d records, capture holds %d" !n meta.n_records;
  let dropped, rules =
    match s.gate with
    | Some g ->
        let st = Enforce.Enforcer.stats g in
        (st.Enforce.Enforcer.blocked, st.Enforce.Enforcer.table.Enforce.Block_table.active)
    | None -> (0, 0)
  in
  (* Outside the timed loop: in traced passes benign workloads take one
     checkpoint at the end, so the snapshot layer is measured on every
     workload. *)
  if sp <> None && s.snaps = [] then snapshot ?sp s;
  let horizon = Dsim.Time.add (Dsim.Scheduler.now s.sched) (Dsim.Time.of_sec 1.0) in
  Dsim.Scheduler.advance_to s.sched horizon;
  let digest =
    if not with_digest then ""
    else
      Vids.Snapshot.digest ~at:horizon s.engine
      ^ match s.gate with Some g -> "/" ^ Enforce.Enforcer.digest g | None -> ""
  in
  let raised =
    List.sort_uniq compare
      (List.map (fun a -> (a.Vids.Alert.kind, a.Vids.Alert.subject)) (Vids.Engine.alerts s.engine))
  in
  let report what l =
    List.iter
      (fun (k, s) -> Printf.eprintf "sensor_bench: %s alert %s %s\n" what (Vids.Alert.kind_to_string k) s)
      l;
    List.length l
  in
  let missed = report "missed" (List.filter (fun e -> not (List.mem e raised)) meta.oracle) in
  let spurious = report "false" (List.filter (fun e -> not (List.mem e meta.oracle)) raised) in
  let alert_digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (List.map (fun (k, s) -> Vids.Alert.kind_to_string k ^ "|" ^ s) raised)))
  in
  let c = Vids.Engine.counters s.engine in
  let failed =
    c.Vids.Engine.faults + c.Vids.Engine.rtp_shed + abs (c.Vids.Engine.malformed_packets - meta.malformed)
  in
  close s;
  let st = !stats_at_peak in
  let p =
    {
      wall_s = float_of_int wall_ns /. 1e9;
      lat_ns = Array.sub lat 0 !n;
      retained_per_call =
        float_of_int ((!peak_live - base_live) * word_bytes) /. float_of_int (max 1 !peak_calls);
      failed;
      missed;
      spurious;
      false_blocks = !false_blocks;
      digest;
      alert_digest;
      classes = (!sip, !media, !other);
      gc_alloc_words = a1 -. a0;
      gc_minor = q1.Gc.minor_collections - q0.Gc.minor_collections;
      gc_major = q1.Gc.major_collections - q0.Gc.major_collections - !pause_majors;
      calls_peak = st.Vids.Fact_base.peak_calls;
      detectors_peak = st.Vids.Fact_base.detectors;
      reported_per_call =
        float_of_int st.Vids.Fact_base.measured_bytes /. float_of_int (max 1 !peak_calls);
      dropped;
      rules;
      pending_peak = !pending_peak;
    }
  in
  (p, s.snaps)

(* ------------------------------------------------------------------ *)
(* Per-layer replays of the workload's own payloads                    *)
(* ------------------------------------------------------------------ *)

(* ns and minor-heap bytes per call of [f] over [items], cycling until
   [ops] calls have run. *)
let per_op ~ops items f =
  let len = Array.length items in
  if len = 0 then (0.0, 0.0)
  else begin
    let w0 = Gc.minor_words () and t0 = now_ns () in
    for k = 0 to ops - 1 do
      ignore (Sys.opaque_identity (f items.(k mod len)))
    done;
    let dt = now_ns () - t0 and dw = Gc.minor_words () -. w0 in
    (float_of_int dt /. float_of_int ops, dw *. float_of_int word_bytes /. float_of_int ops)
  end

let sample ~cap l =
  let a = Array.of_list l in
  let n = Array.length a in
  if n <= cap then a else Array.init cap (fun i -> a.(i * n / cap))

let layer_replays capture =
  let records =
    match Ingest.Pcap.read_file capture with Ok (rs, _) -> rs | Error e -> fail "%s" e
  in
  let alloc = Dsim.Packet.allocator () in
  let packets =
    List.map
      (fun r ->
        Dsim.Packet.make alloc ~src:r.Vids.Trace.src ~dst:r.Vids.Trace.dst ~sent_at:r.Vids.Trace.at
          r.Vids.Trace.payload)
      records
  in
  let of_class c = List.filter (fun p -> Vids.Classifier.quick_protocol p = c) packets in
  let payloads l = List.map (fun p -> p.Dsim.Packet.payload) l in
  let sip = payloads (of_class `Sip) and rtp = payloads (of_class `Media) in
  let sdp =
    List.filter_map
      (fun s ->
        match Sip.Msg.parse s with Ok m when m.Sip.Msg.body <> "" -> Some m.Sip.Msg.body | _ -> None)
      sip
  in
  let known_media _ = false in
  (* The gate's drop path, measured the same way on every workload: the
     workload's own packets through a gate whose table drops each of
     their sources. *)
  let dropped = sample ~cap:2000 packets in
  let sched = Dsim.Scheduler.create () in
  let gate = Enforce.Enforcer.create sched (Vids.Engine.create sched) in
  Array.iter
    (fun p ->
      ignore
        (Enforce.Block_table.install (Enforce.Enforcer.table gate) ~now:Dsim.Time.zero
           (Enforce.Block_table.Src (Enforce.Source_key.of_addr p.Dsim.Packet.src))
           Enforce.Block_table.Drop ~expires_at:(Dsim.Time.of_sec 3600.0) ~reason:"bench" ()))
    dropped;
  let drop p = if Enforce.Enforcer.ingest gate p then fail "gate passed a blocked source" in
  [
    ("enforce.gate_drop", per_op ~ops:50_000 dropped drop);
    ("sip.parse", per_op ~ops:20_000 (sample ~cap:5000 sip) Sip.Msg.parse);
    ("sdp.parse", per_op ~ops:20_000 (sample ~cap:5000 sdp) Sdp.parse);
    ("rtp.decode", per_op ~ops:200_000 (sample ~cap:5000 rtp) Rtp.Rtp_packet.decode);
    ( "classifier.classify",
      per_op ~ops:50_000 (sample ~cap:20_000 packets) (Vids.Classifier.classify ~known_media) );
  ]

let spec_load_ms () =
  let dir = Filename.concat "examples" "specs" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".vspec")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  in
  let once () =
    let t0 = now_ns () in
    (match Vids.Spec_load.load_files Vids.Config.default files with
    | Ok _ -> ()
    | Error e -> fail "spec load: %s" e);
    float_of_int (now_ns () - t0) /. 1e6
  in
  let xs = Array.init 5 (fun _ -> once ()) in
  Array.sort compare xs;
  xs.(2)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Mean duration (ns) and minor-heap bytes of the spans named [name]. *)
let mean_span (sp : spans) name =
  let t = ref 0 and w = ref 0 and c = ref 0 in
  for i = 0 to sp.n - 1 do
    if sp.name.(i) = name then begin
      t := !t + (sp.stop.(i) - sp.start.(i));
      w := !w + sp.words.(i);
      incr c
    end
  done;
  if !c = 0 then (0.0, 0.0)
  else (float_of_int !t /. float_of_int !c, float_of_int (!w * word_bytes) /. float_of_int !c)

let emit_metrics spec values =
  let got = List.map fst values in
  List.iter
    (fun (name, _) -> if not (List.mem name got) then fail "metric %s not measured" name)
    spec;
  Obs.Json.obj
    (List.map
       (fun (name, v) ->
         match List.assoc_opt name spec with
         | None -> fail "metric %s is not declared" name
         | Some unit ->
             if not (Names.valid name) then fail "metric name %S" name;
             (name, Obs.Json.obj [ ("value", Printf.sprintf "%.17g" v); ("unit", Obs.Json.quote unit) ]))
       values)

let gc_settings () =
  let g = Gc.get () in
  Obs.Json.obj
    [
      ("minor_heap_size", Obs.Json.int g.Gc.minor_heap_size);
      ("major_heap_increment", Obs.Json.int g.Gc.major_heap_increment);
      ("space_overhead", Obs.Json.int g.Gc.space_overhead);
      ("verbose", Obs.Json.int g.Gc.verbose);
      ("max_overhead", Obs.Json.int g.Gc.max_overhead);
      ("stack_limit", Obs.Json.int g.Gc.stack_limit);
      ("allocation_policy", Obs.Json.int g.Gc.allocation_policy);
      ("window_size", Obs.Json.int g.Gc.window_size);
      ("custom_major_ratio", Obs.Json.int g.Gc.custom_major_ratio);
      ("custom_minor_ratio", Obs.Json.int g.Gc.custom_minor_ratio);
      ("custom_minor_max_size", Obs.Json.int g.Gc.custom_minor_max_size);
    ]

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

let gen ~workload ~seed ~dir =
  let w =
    match Gen.workload_of_string workload with
    | Some w -> w
    | None -> fail "unknown workload %s" workload
  in
  let g = Gen.make w ~seed in
  Ingest.Pcap.write_file (capture_path dir workload) (Array.to_list g.Gen.records);
  write_meta (meta_path dir workload) g

let run ~workload ~seed ~seconds ~traced ~dir ~commit ~nproc =
  let meta = read_meta (meta_path dir workload) in
  let capture = capture_path dir workload in
  let journal_path = Filename.concat dir (workload ^ ".journal") in
  (* Set-up: 25 sensor builds, each timed alone, before every pass; the
     median of all of them spreads the sample over the whole run. *)
  let setups = ref [] in
  let time_setups () =
    for _ = 1 to 25 do
      let t0 = now_ns () in
      let s = build ~meta ~journal_path ~sp:None in
      setups := (float_of_int (now_ns () - t0) /. 1e9) :: !setups;
      close s
    done
  in
  let lat = Array.make meta.n_records 0 in
  let sp = if traced then Some (spans_create ((3 * meta.n_records) + 4096)) else None in
  (* The first pass grows the heap to its working size and is not
     reported; a long-running sensor pays that once. *)
  time_setups ();
  let warm, _ = run_pass ~with_digest:true ~meta ~capture ~journal_path ~lat ~sp:None () in
  let peak_heap_mb = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * word_bytes) /. 1048576.0 in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  (* Untraced and traced passes alternate in a traced run; the tracing
     overhead is the gap between their throughputs. *)
  let plain = ref [] and traced_passes = ref [] and snaps = ref [] in
  let rec loop () =
    time_setups ();
    let p, _ = run_pass ~meta ~capture ~journal_path ~lat ~sp:None () in
    plain := p :: !plain;
    if traced then begin
      let q, sn = run_pass ~meta ~capture ~journal_path ~lat ~sp () in
      traced_passes := q :: !traced_passes;
      snaps := sn
    end;
    if now_ns () < deadline then loop ()
  in
  loop ();
  let all = (warm :: !plain) @ !traced_passes in
  let plain = List.rev !plain in
  let rate p = float_of_int meta.n_records /. p.wall_s in
  (* Latency percentiles pool every record of the reported passes. *)
  let pooled = Array.concat (List.map (fun p -> p.lat_ns) plain) in
  Array.sort compare pooled;
  let latency_us q = float_of_int (percentile pooled q) /. 1e3 in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 all in
  let missed = sum (fun p -> p.missed) and spurious = sum (fun p -> p.spurious) in
  let false_blocks = sum (fun p -> p.false_blocks) and failed_records = sum (fun p -> p.failed) in
  let deterministic = List.for_all (fun p -> p.alert_digest = warm.alert_digest) all in
  let attempted = meta.n_records * List.length all in
  let failed = failed_records + false_blocks + missed + spurious + if deterministic then 0 else 1 in
  let correct = failed = 0 in
  let sip, media, other = warm.classes in
  let metrics =
    if not traced then
      emit_metrics Names.end_to_end
        [
          ( "records_per_s",
            float_of_int (meta.n_records * List.length plain)
            /. List.fold_left (fun acc p -> acc +. p.wall_s) 0.0 plain );
          ("latency_p50_us", latency_us 0.50);
          ("latency_p999_us", latency_us 0.999);
          ("retained_bytes_per_call", median (List.map (fun p -> p.retained_per_call) plain));
          ("peak_heap_mb", peak_heap_mb);
          ("setup_s", median !setups);
        ]
    else begin
      let sp = Option.get sp in
      let tp = List.hd !traced_passes in
      let med f = median (List.map f plain) in
      let layer = layer_replays capture in
      let ns name = fst (List.assoc name layer) and bytes name = snd (List.assoc name layer) in
      let sip_ns, sip_b = mean_span sp s_sip and rtp_ns, rtp_b = mean_span sp s_media in
      let other_ns, _ = mean_span sp s_other in
      let adv_ns, _ = mean_span sp s_advance and next_ns, _ = mean_span sp s_next in
      let snap_ms = median (List.map (fun (ms, _, _) -> ms) !snaps) in
      let snap_bpc =
        median
          (List.map (fun (_, b, calls) -> float_of_int b /. float_of_int (max 1 calls)) !snaps)
      in
      write_spans (Filename.concat dir ("trace-" ^ workload ^ ".tsv")) sp;
      let n = float_of_int meta.n_records in
      emit_metrics Names.per_layer
        [
          ("sip.parse_ns", ns "sip.parse");
          ("sip.parse_bytes", bytes "sip.parse");
          ("sdp.parse_ns", ns "sdp.parse");
          ("sdp.parse_bytes", bytes "sdp.parse");
          ("rtp.decode_ns", ns "rtp.decode");
          ("rtp.decode_bytes", bytes "rtp.decode");
          ("classifier.classify_ns", ns "classifier.classify");
          ("classifier.classify_bytes", bytes "classifier.classify");
          ("engine.sip_ns", sip_ns);
          ("engine.sip_bytes", sip_b);
          ("engine.rtp_ns", rtp_ns);
          ("engine.rtp_bytes", rtp_b);
          ("engine.other_ns", other_ns);
          ("enforce.gate_drop_ns", ns "enforce.gate_drop");
          ("enforce.dropped", float_of_int tp.dropped);
          ("enforce.rules_peak", float_of_int tp.rules);
          ("scheduler.advance_ns", adv_ns);
          ("scheduler.pending_peak", float_of_int tp.pending_peak);
          ("snapshot.capture_ms", snap_ms);
          ("snapshot.bytes_per_call", snap_bpc);
          ("gc.alloc_bytes_per_record", med (fun p -> p.gc_alloc_words) *. float_of_int word_bytes /. n);
          ("gc.minor_per_krecord", med (fun p -> float_of_int p.gc_minor) *. 1000.0 /. n);
          ("gc.major_collections", med (fun p -> float_of_int p.gc_major));
          ("fact_base.calls_peak", float_of_int tp.calls_peak);
          ("fact_base.detectors_peak", float_of_int tp.detectors_peak);
          ("fact_base.reported_bytes_per_call", tp.reported_per_call);
          ("ingest.pcap_next_ns", next_ns);
          ("spec.load_ms", spec_load_ms ());
          ( "trace.overhead_fraction",
            1.0 -. (median (List.map rate !traced_passes) /. median (List.map rate plain)) );
        ]
    end
  in
  let facts =
    Obs.Json.obj
      [
        ("workload", Obs.Json.quote workload);
        ("seed", Obs.Json.int seed);
        ("traced", Obs.Json.bool traced);
        ("passes", Obs.Json.int (List.length all));
        ("records_per_pass", Obs.Json.int meta.n_records);
        ( "pass_records_per_s",
          Obs.Json.arr (List.map (fun p -> Printf.sprintf "%.0f" (rate p)) plain) );
        ( "records_by_class",
          Obs.Json.obj
            [ ("sip", Obs.Json.int sip); ("media", Obs.Json.int media); ("other", Obs.Json.int other) ] );
        ( "latency_us",
          Obs.Json.obj
            (List.map
               (fun q -> (Printf.sprintf "p%g" (q *. 100.), Printf.sprintf "%.3f" (latency_us q)))
               [ 0.5; 0.9; 0.98; 0.99; 0.995; 0.999 ]) );
        ("expected_alerts", Obs.Json.int (List.length meta.oracle));
        ("alerts_missed", Obs.Json.int missed);
        ("alerts_false", Obs.Json.int spurious);
        ("false_blocks", Obs.Json.int false_blocks);
        ("failed_fraction", Obs.Json.float (float_of_int failed_records /. float_of_int attempted));
        ("deterministic", Obs.Json.bool deterministic);
        ("engine_digest", Obs.Json.quote (Digest.to_hex (Digest.string warm.digest)));
        ("alert_digest", Obs.Json.quote warm.alert_digest);
        ("ocamlrunparam", Obs.Json.quote (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:""));
        ("gc", gc_settings ());
        ("ocaml_version", Obs.Json.quote Sys.ocaml_version);
        ("nproc", Obs.Json.int nproc);
        ("commit", Obs.Json.quote commit);
      ]
  in
  print_endline facts;
  print_endline
    (Obs.Json.obj
       [
         ("correct", Obs.Json.bool correct);
         ("attempted", Obs.Json.int attempted);
         ("failed", Obs.Json.int failed);
         ("metrics", metrics);
       ]);
  exit (if correct then 0 else 1)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | x :: _ -> fail "unexpected argument %s" x
  in
  match args with
  | cmd :: rest -> (
      let o = opts [] rest in
      let get k = match List.assoc_opt k o with Some v -> v | None -> fail "missing --%s" k in
      let int k = match int_of_string_opt (get k) with Some v -> v | None -> fail "--%s: not an integer" k in
      let dir = get "dir" in
      match cmd with
      | "gen" -> gen ~workload:(get "workload") ~seed:(int "seed") ~dir
      | "run" ->
          run ~workload:(get "workload") ~seed:(int "seed") ~seconds:(float_of_int (int "seconds"))
            ~traced:(int "trace" = 1) ~dir
            ~commit:(Option.value (List.assoc_opt "commit" o) ~default:"unknown")
            ~nproc:(int "nproc")
      | c -> fail "unknown command %s" c)
  | [] -> fail "usage: sensor_bench (gen|run) --workload W --seed N --dir D ..."
