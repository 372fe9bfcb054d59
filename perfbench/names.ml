(* Every metric the benchmark emits, with its unit: end-to-end metrics in
   untraced runs, per-layer metrics in traced runs.  BENCHMARK.json lists
   the same names; the benchmark's tests keep the two in step. *)

let end_to_end =
  [
    ("records_per_s", "1/s");
    ("latency_p50_us", "us");
    ("latency_p999_us", "us");
    ("retained_bytes_per_call", "B");
    ("peak_heap_mb", "MB");
    ("setup_s", "s");
  ]

let per_layer =
  [
    ("sip.parse_ns", "ns");
    ("sip.parse_bytes", "B");
    ("sdp.parse_ns", "ns");
    ("sdp.parse_bytes", "B");
    ("rtp.decode_ns", "ns");
    ("rtp.decode_bytes", "B");
    ("classifier.classify_ns", "ns");
    ("classifier.classify_bytes", "B");
    ("engine.sip_ns", "ns");
    ("engine.sip_bytes", "B");
    ("engine.rtp_ns", "ns");
    ("engine.rtp_bytes", "B");
    ("engine.other_ns", "ns");
    ("enforce.gate_drop_ns", "ns");
    ("enforce.dropped", "count");
    ("enforce.rules_peak", "count");
    ("scheduler.advance_ns", "ns");
    ("scheduler.pending_peak", "count");
    ("snapshot.capture_ms", "ms");
    ("snapshot.bytes_per_call", "B");
    ("gc.alloc_bytes_per_record", "B");
    ("gc.minor_per_krecord", "count");
    ("gc.major_collections", "count");
    ("fact_base.calls_peak", "count");
    ("fact_base.detectors_peak", "count");
    ("fact_base.reported_bytes_per_call", "B");
    ("ingest.pcap_next_ns", "ns");
    ("spec.load_ms", "ms");
    ("trace.overhead_fraction", "fraction");
  ]

let valid name =
  name <> ""
  && String.length name <= 64
  && String.for_all
       (fun c ->
         match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       name
