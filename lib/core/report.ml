let all_kinds = Alert.all_kinds

let alerts ppf engine =
  let all = Engine.alerts engine in
  if all = [] then Format.fprintf ppf "no alerts.@."
  else
    List.iter
      (fun kind ->
        match List.filter (fun a -> a.Alert.kind = kind) all with
        | [] -> ()
        | group ->
            Format.fprintf ppf "%a (%d):@." Alert.pp_kind kind (List.length group);
            List.iter (fun a -> Format.fprintf ppf "  %a@." Alert.pp a) group)
      all_kinds

let summary ppf engine =
  let c = Engine.counters engine in
  let stats = Engine.memory_stats engine in
  Format.fprintf ppf "traffic: %d SIP, %d RTP, %d RTCP, %d other, %d malformed@."
    c.Engine.sip_packets c.Engine.rtp_packets c.Engine.rtcp_packets c.Engine.other_packets
    c.Engine.malformed_packets;
  Format.fprintf ppf "orphans: %d requests, %d responses@." c.Engine.orphan_requests
    c.Engine.orphan_responses;
  let by_severity severity =
    List.length (List.filter (fun a -> a.Alert.severity = severity) (Engine.alerts engine))
  in
  Format.fprintf ppf "alerts: %d distinct (%d critical, %d warning), %d duplicates suppressed@."
    c.Engine.alerts_raised (by_severity Alert.Critical) (by_severity Alert.Warning)
    c.Engine.alerts_suppressed;
  Format.fprintf ppf "calls: %d active, %d created, %d deleted, peak %d@."
    stats.Fact_base.active_calls stats.Fact_base.calls_created stats.Fact_base.calls_deleted
    stats.Fact_base.peak_calls;
  Format.fprintf ppf "memory: %d B modeled (%d B/call), %d B measured; %d detectors@."
    stats.Fact_base.modeled_bytes
    ((Engine.config engine).Config.sip_state_bytes + (Engine.config engine).Config.rtp_state_bytes)
    stats.Fact_base.measured_bytes stats.Fact_base.detectors;
  if
    stats.Fact_base.calls_evicted + stats.Fact_base.detectors_evicted
    + stats.Fact_base.calls_swept
    > 0
  then
    Format.fprintf ppf "governance: %d calls evicted, %d detectors evicted, %d swept@."
      stats.Fact_base.calls_evicted stats.Fact_base.detectors_evicted stats.Fact_base.calls_swept;
  if c.Engine.faults > 0 then
    Format.fprintf ppf "faults contained: %d@." c.Engine.faults;
  (match Engine.degraded_intervals engine with
  | [] -> ()
  | intervals ->
      Format.fprintf ppf "degraded intervals (%d RTP packets shed):@." c.Engine.rtp_shed;
      List.iter
        (fun (start, stop) ->
          match stop with
          | Some stop -> Format.fprintf ppf "  %a .. %a@." Dsim.Time.pp start Dsim.Time.pp stop
          | None -> Format.fprintf ppf "  %a .. (still degraded)@." Dsim.Time.pp start)
        intervals);
  (match Engine.downtime_intervals engine with
  | [] -> ()
  | outages ->
      let total_missed = List.fold_left (fun acc (_, _, m) -> acc + m) 0 outages in
      let total_down =
        List.fold_left
          (fun acc (start, stop, _) -> Dsim.Time.add acc (Dsim.Time.sub stop start))
          Dsim.Time.zero outages
      in
      Format.fprintf ppf "downtime intervals (%a down, %d packets missed):@." Dsim.Time.pp
        total_down total_missed;
      List.iter
        (fun (start, stop, missed) ->
          Format.fprintf ppf "  %a .. %a (%d packets missed)@." Dsim.Time.pp start Dsim.Time.pp
            stop missed)
        outages);
  Format.fprintf ppf "analysis cpu: %a@." Dsim.Time.pp (Engine.cpu_busy engine)

(* Machine-readable twin of [full]: everything the text report shows, as
   one JSON object, for scripted post-processing of detect/analyze runs. *)
let json engine =
  let module J = Obs.Json in
  let c = Engine.counters engine in
  let stats = Engine.memory_stats engine in
  let counters =
    J.obj
      [
        ("sip_packets", J.int c.Engine.sip_packets);
        ("rtp_packets", J.int c.Engine.rtp_packets);
        ("rtcp_packets", J.int c.Engine.rtcp_packets);
        ("other_packets", J.int c.Engine.other_packets);
        ("malformed_packets", J.int c.Engine.malformed_packets);
        ("orphan_requests", J.int c.Engine.orphan_requests);
        ("orphan_responses", J.int c.Engine.orphan_responses);
        ("alerts_raised", J.int c.Engine.alerts_raised);
        ("alerts_suppressed", J.int c.Engine.alerts_suppressed);
        ("anomalies", J.int c.Engine.anomalies);
        ("faults", J.int c.Engine.faults);
        ("rtp_shed", J.int c.Engine.rtp_shed);
      ]
  in
  let memory =
    J.obj
      [
        ("active_calls", J.int stats.Fact_base.active_calls);
        ("calls_created", J.int stats.Fact_base.calls_created);
        ("calls_deleted", J.int stats.Fact_base.calls_deleted);
        ("peak_calls", J.int stats.Fact_base.peak_calls);
        ("modeled_bytes", J.int stats.Fact_base.modeled_bytes);
        ("measured_bytes", J.int stats.Fact_base.measured_bytes);
        ("detectors", J.int stats.Fact_base.detectors);
        ("calls_evicted", J.int stats.Fact_base.calls_evicted);
        ("detectors_evicted", J.int stats.Fact_base.detectors_evicted);
        ("calls_swept", J.int stats.Fact_base.calls_swept);
        ("detectors_swept", J.int stats.Fact_base.detectors_swept);
      ]
  in
  let alert_json (a : Alert.t) =
    J.obj
      [
        ("kind", J.quote (Alert.kind_to_string a.Alert.kind));
        ("severity", J.quote (Alert.severity_to_string a.Alert.severity));
        ("at_us", J.int (Dsim.Time.to_us a.Alert.at));
        ("subject", J.quote a.Alert.subject);
        ("detail", J.quote a.Alert.detail);
      ]
  in
  let degraded =
    List.map
      (fun (start, stop) ->
        J.obj
          [
            ("start_us", J.int (Dsim.Time.to_us start));
            ("stop_us", match stop with Some s -> J.int (Dsim.Time.to_us s) | None -> "null");
          ])
      (Engine.degraded_intervals engine)
  in
  let downtime =
    List.map
      (fun (start, stop, missed) ->
        J.obj
          [
            ("start_us", J.int (Dsim.Time.to_us start));
            ("stop_us", J.int (Dsim.Time.to_us stop));
            ("packets_missed", J.int missed);
          ])
      (Engine.downtime_intervals engine)
  in
  let alerts = Engine.alerts engine in
  J.obj
    [
      ("counters", counters);
      ("memory", memory);
      ("cpu_busy_us", J.int (Dsim.Time.to_us (Engine.cpu_busy engine)));
      ("degraded", J.bool (Engine.degraded engine));
      ("degraded_intervals", J.arr degraded);
      ("downtime_intervals", J.arr downtime);
      ("attacks_detected", J.bool (List.exists (fun a -> Alert.is_attack a.Alert.kind) alerts));
      ("alerts", J.arr (List.map alert_json alerts));
    ]

let full ppf engine =
  summary ppf engine;
  Format.fprintf ppf "@.";
  alerts ppf engine

let to_string render engine = Format.asprintf "%a" render engine
