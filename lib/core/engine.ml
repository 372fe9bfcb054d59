type counters = {
  sip_packets : int;
  rtp_packets : int;
  rtcp_packets : int;
  other_packets : int;
  malformed_packets : int;
  orphan_requests : int;
  orphan_responses : int;
  alerts_raised : int;
  alerts_suppressed : int;
  anomalies : int;
  faults : int;
  rtp_shed : int;
}

(* Pre-resolved telemetry handles, so the per-packet cost of metrics is a
   field load and an integer bump — no registry lookups on the hot path.
   Strictly write-only with respect to the engine: nothing here feeds back
   into analysis, so [Snapshot.digest] is identical with telemetry on or
   off. *)
type instruments = {
  i_registry : Obs.Metrics.t; (* for the rare, label-dynamic counters *)
  i_sip : Obs.Metrics.counter;
  i_rtp : Obs.Metrics.counter;
  i_rtcp : Obs.Metrics.counter;
  i_other : Obs.Metrics.counter;
  i_malformed : Obs.Metrics.counter;
  i_inject_call : Obs.Metrics.counter;
  i_inject_flood : Obs.Metrics.counter;
  i_inject_spam : Obs.Metrics.counter;
  i_inject_drdos : Obs.Metrics.counter;
  i_suppressed : Obs.Metrics.counter;
  i_anomalies : Obs.Metrics.counter;
  i_faults : Obs.Metrics.counter;
  i_evictions : Obs.Metrics.counter;
  i_rtp_shed : Obs.Metrics.counter;
  i_occupancy : Obs.Metrics.gauge;
  i_occupancy_hist : Obs.Metrics.histogram;
}

type t = {
  config : Config.t;
  sched : Dsim.Scheduler.t;
  base : Fact_base.t;
  mutable inst : instruments option;
  mutable flight : Obs.Trace.t option;
  mutable prof : Obs.Prof.t option;
  mutable alerts : Alert.t list; (* newest first *)
  seen : (string, unit) Hashtbl.t; (* alert dedup keys *)
  (* Dedup keys of alerts recovered from the write-ahead journal but not
     yet reproduced by replay.  The first re-raise of such a key "claims"
     it: the alert is already in the log, so the raise neither appends nor
     counts as a suppressed duplicate — exactly-once semantics that let a
     journal merge plus trace-suffix replay converge with an uninterrupted
     run. *)
  journal_pending : (string, unit) Hashtbl.t;
  mutable listeners : (Alert.t -> unit) list;
  mutable eviction_listeners : (at:Dsim.Time.t -> subject:string -> detail:string -> unit) list;
  mutable downtime_log : (Dsim.Time.t * Dsim.Time.t * int) list; (* newest first *)
  mutable busy : Dsim.Time.t;
  mutable sip_packets : int;
  mutable rtp_packets : int;
  mutable rtcp_packets : int;
  mutable other_packets : int;
  mutable malformed_packets : int;
  mutable orphan_requests : int;
  mutable orphan_responses : int;
  mutable suppressed : int;
  mutable anomalies : int;
  mutable faults : int;
  mutable injects : int; (* machine injections, for the chaos self-test knob *)
  mutable rtp_shed : int;
  mutable degraded_since : Dsim.Time.t option;
  mutable degraded_log : (Dsim.Time.t * Dsim.Time.t) list; (* closed intervals, newest first *)
  mutable inline_free_at : Dsim.Time.t; (* single-CPU queueing for inline deployment *)
}

let now t = Dsim.Scheduler.now t.sched

(* --------------------------------------------------------------- *)
(* Telemetry hooks                                                  *)
(* --------------------------------------------------------------- *)

let tick t f = match t.inst with None -> () | Some i -> Obs.Metrics.incr (f i)

(* Same single-branch discipline as [tick]: with no profiler attached a
   span site costs one load and one conditional jump. *)
let penter t s = match t.prof with None -> () | Some p -> Obs.Prof.enter p s
let pexit t s = match t.prof with None -> () | Some p -> Obs.Prof.exit p s

let trace t ev =
  match t.flight with None -> () | Some fl -> Obs.Trace.record fl ~at:(now t) ev

(* A quarantine is the flight recorder's raison d'être: dump the tail so
   the event sequence that led to the fault survives as an artifact. *)
let trace_quarantine t ~subject ~origin =
  match t.flight with
  | None -> ()
  | Some fl ->
      Obs.Trace.record fl ~at:(now t) (Obs.Trace.Quarantine { subject; origin });
      ignore (Obs.Trace.dump fl ~reason:(Printf.sprintf "quarantine %s (%s)" subject origin))

let count_alert t (alert : Alert.t) =
  match t.inst with
  | None -> ()
  | Some i ->
      Obs.Metrics.incr
        (Obs.Metrics.counter i.i_registry "vids_alerts_total"
           ~help:"Distinct alerts raised, by kind"
           ~labels:[ ("kind", Alert.kind_to_string alert.Alert.kind) ])

let raise_alert t alert =
  let key = Alert.dedup_key alert in
  if Hashtbl.mem t.journal_pending key then begin
    (* Claimed: the journal merge already logged this alert (and notified
       nobody — it was delivered before the crash), so the replayed raise
       is the original one, not a duplicate. *)
    Hashtbl.remove t.journal_pending key;
    Hashtbl.replace t.seen key ()
  end
  else if Hashtbl.mem t.seen key then begin
    t.suppressed <- t.suppressed + 1;
    tick t (fun i -> i.i_suppressed)
  end
  else begin
    Hashtbl.replace t.seen key ();
    t.alerts <- alert :: t.alerts;
    count_alert t alert;
    trace t
      (Obs.Trace.Alert
         { kind = Alert.kind_to_string alert.Alert.kind; subject = alert.Alert.subject });
    (* A listener is foreign code; its failure must neither lose the alert
       nor unwind the packet loop (and raising another alert from here
       could recurse) — contain it to a counter. *)
    List.iter
      (fun listener -> try listener alert with _ -> t.faults <- t.faults + 1)
      t.listeners
  end

(* --------------------------------------------------------------- *)
(* Fault containment                                                *)
(* --------------------------------------------------------------- *)

exception Chaos_fault

(* Runs [f] inside the containment boundary.  An escaping exception is
   counted, reported as an [Engine_fault] alert, and returned so the call
   site can quarantine the offending record; it never unwinds further. *)
let contain t ~subject ~origin f =
  try
    f ();
    false
  with
  | (Stack_overflow | Out_of_memory) as fatal -> raise fatal
  | exn ->
      t.faults <- t.faults + 1;
      tick t (fun i -> i.i_faults);
      raise_alert t
        (Alert.make ~kind:Alert.Engine_fault ~at:(now t) ~subject
           (Printf.sprintf "%s: contained exception %s" origin (Printexc.to_string exn)));
      true

(* Chaos self-test: deterministically blow up inside the boundary every
   [chaos_inject_every]-th machine injection. *)
let checked_inject t system ~machine event =
  t.injects <- t.injects + 1;
  let every = t.config.Config.chaos_inject_every in
  if every > 0 && t.injects mod every = 0 then raise Chaos_fault;
  Efsm.System.inject system ~machine event

(* --------------------------------------------------------------- *)
(* Graceful degradation                                             *)
(* --------------------------------------------------------------- *)

let degraded t = Option.is_some t.degraded_since

let degraded_intervals t =
  let closed = List.rev_map (fun (a, b) -> (a, Some b)) t.degraded_log in
  match t.degraded_since with None -> closed | Some since -> closed @ [ (since, None) ]

let update_degradation t =
  let high = t.config.Config.degrade_high_water in
  if high > 0 then begin
    let low =
      if t.config.Config.degrade_low_water > 0 then t.config.Config.degrade_low_water
      else high * 3 / 4
    in
    let occupancy = Fact_base.occupancy t.base in
    match t.degraded_since with
    | None when occupancy >= high ->
        t.degraded_since <- Some (now t);
        raise_alert t
          (Alert.make ~kind:Alert.Resource_pressure ~at:(now t) ~subject:"engine"
             (Printf.sprintf
                "degraded: %d state records >= %d high water; shedding stream-level RTP analysis"
                occupancy high))
    | Some since when occupancy <= low ->
        t.degraded_since <- None;
        t.degraded_log <- (since, now t) :: t.degraded_log
    | None | Some _ -> ()
  end

let create ?(config = Config.default) ?(overrides = []) sched =
  (* The fact base needs the engine's callbacks and the engine record needs
     the fact base: tie the knot with a forward reference that is set
     before any packet or timer can fire. *)
  let self = ref None in
  let with_engine f = match !self with Some t -> f t | None -> () in
  let on_pressure ~subject ~detail =
    with_engine (fun t ->
        raise_alert t (Alert.make ~kind:Alert.Resource_pressure ~at:(now t) ~subject detail);
        tick t (fun i -> i.i_evictions);
        trace t (Obs.Trace.Eviction { subject; detail });
        (* Unlike the deduplicated alert above, eviction listeners see every
           reclamation — the journal needs each one for forensics. *)
        List.iter
          (fun listener ->
            try listener ~at:(now t) ~subject ~detail with _ -> t.faults <- t.faults + 1)
          t.eviction_listeners)
  in
  (* Map a machine's attack state to the alert taxonomy. *)
  let kind_of_attack_state state =
    if String.equal state Sip_call_machine.st_cancel_dos then Alert.Cancel_dos
    else if String.equal state Sip_call_machine.st_hijack then Alert.Call_hijack
    else if String.equal state Rtp_call_machine.st_bye_dos then Alert.Bye_dos
    else if String.equal state Rtp_call_machine.st_billing_fraud then Alert.Billing_fraud
    else if String.equal state Invite_flood_machine.st_flood then Alert.Invite_flood
    else if String.equal state Media_spam_machine.st_spam then Alert.Media_spam
    else if String.equal state Media_spam_machine.st_flood then Alert.Rtp_flood
    else if String.equal state Drdos_machine.st_attack then Alert.Drdos
    else Alert.Spec_deviation
  in
  let on_alert ~machine ~state ~subject ~detail =
    with_engine (fun t ->
        trace t (Obs.Trace.Transition { machine; subject; state });
        raise_alert t (Alert.make ~kind:(kind_of_attack_state state) ~at:(now t) ~subject detail))
  in
  let on_anomaly ~machine ~state ~subject ~event ~detail =
    with_engine (fun t ->
        t.anomalies <- t.anomalies + 1;
        tick t (fun i -> i.i_anomalies);
        let subject = Printf.sprintf "%s/%s@%s" subject event.Efsm.Event.name state in
        raise_alert t
          (Alert.make ~kind:Alert.Spec_deviation ~at:(now t) ~subject
             (Printf.sprintf "machine %s: %s" machine detail)))
  in
  let host = Efsm.System.timer_host_of_scheduler sched in
  (* Timer callbacks run straight off the scheduler, outside the per-packet
     boundary; contain them so a faulting timer cannot kill the event
     loop. *)
  let timer_host =
    {
      host with
      Efsm.System.set =
        (fun delay f ->
          host.Efsm.System.set delay (fun () ->
              match !self with
              | None -> f ()
              | Some t -> ignore (contain t ~subject:"timer" ~origin:"timer callback" f)));
    }
  in
  let base = Fact_base.create ~on_pressure ~overrides ~config ~timer_host ~on_alert ~on_anomaly () in
  let t =
    {
      config;
      sched;
      base;
      inst = None;
      flight = None;
      prof = None;
      alerts = [];
      seen = Hashtbl.create 64;
      journal_pending = Hashtbl.create 8;
      listeners = [];
      eviction_listeners = [];
      downtime_log = [];
      busy = Dsim.Time.zero;
      sip_packets = 0;
      rtp_packets = 0;
      rtcp_packets = 0;
      other_packets = 0;
      malformed_packets = 0;
      orphan_requests = 0;
      orphan_responses = 0;
      suppressed = 0;
      anomalies = 0;
      faults = 0;
      injects = 0;
      rtp_shed = 0;
      degraded_since = None;
      degraded_log = [];
      inline_free_at = Dsim.Time.zero;
    }
  in
  self := Some t;
  Fact_base.schedule_sweep base;
  t

let config t = t.config

let set_telemetry t ?metrics ?flight () =
  t.flight <- flight;
  match metrics with
  | None -> t.inst <- None
  | Some m ->
      Obs.Metrics.set_clock m (fun () -> now t);
      let packets cls =
        Obs.Metrics.counter m "vids_packets_total"
          ~help:"Packets seen by the classifier, by class" ~labels:[ ("class", cls) ]
      in
      let injects target =
        Obs.Metrics.counter m "vids_injects_total"
          ~help:"Events injected into state machines, by target" ~labels:[ ("target", target) ]
      in
      t.inst <-
        Some
          {
            i_registry = m;
            i_sip = packets "sip";
            i_rtp = packets "rtp";
            i_rtcp = packets "rtcp";
            i_other = packets "other";
            i_malformed = packets "malformed";
            i_inject_call = injects "call";
            i_inject_flood = injects "flood";
            i_inject_spam = injects "spam";
            i_inject_drdos = injects "drdos";
            i_suppressed =
              Obs.Metrics.counter m "vids_alerts_suppressed_total"
                ~help:"Duplicate alerts dropped by de-duplication";
            i_anomalies =
              Obs.Metrics.counter m "vids_anomalies_total"
                ~help:"Protocol-deviation anomalies flagged by machines";
            i_faults =
              Obs.Metrics.counter m "vids_faults_total"
                ~help:"Exceptions contained at an engine boundary";
            i_evictions =
              Obs.Metrics.counter m "vids_evictions_total"
                ~help:"State records reclaimed by resource governance";
            i_rtp_shed =
              Obs.Metrics.counter m "vids_rtp_shed_total"
                ~help:"RTP packets whose stream analysis was shed while degraded";
            i_occupancy =
              Obs.Metrics.gauge m "vids_fact_base_occupancy"
                ~help:"Live state records in the fact base";
            i_occupancy_hist =
              Obs.Metrics.histogram m "vids_fact_base_occupancy_hist"
                ~help:"Fact-base occupancy sampled per packet";
          }

let metrics_registry t = match t.inst with Some i -> Some i.i_registry | None -> None
let flight_recorder t = t.flight

let set_profiler t prof =
  t.prof <- prof;
  match prof with
  | None -> ()
  | Some p ->
      (* The profiler's registry may be the telemetry registry or its own;
         either way its snapshots should carry this engine's virtual time,
         as should its sampled span events. *)
      Obs.Metrics.set_clock (Obs.Prof.registry p) (fun () -> now t);
      Obs.Prof.set_vclock p (fun () -> now t)

let profiler t = t.prof

(* --------------------------------------------------------------- *)
(* SIP distribution                                                 *)
(* --------------------------------------------------------------- *)

let register_event_media t call event =
  match Sip_event.media_of_event event with
  | None -> ()
  | Some addr -> Fact_base.register_media t.base call addr

(* A fault inside a call's machines quarantines that call: its record is
   deleted so the poisoned state cannot fault again on the next packet,
   while every other call keeps being analyzed. *)
let inject_call t call event =
  tick t (fun i -> i.i_inject_call);
  trace t (Obs.Trace.Dispatch { target = "call"; subject = call.Fact_base.call_id });
  penter t Obs.Prof.Efsm_dispatch;
  let faulted =
    contain t ~subject:call.Fact_base.call_id ~origin:"call machine"
      (fun () ->
        checked_inject t call.Fact_base.system ~machine:Keys.sip_machine event;
        Fact_base.maybe_finish t.base call)
  in
  pexit t Obs.Prof.Efsm_dispatch;
  if faulted then begin
    Fact_base.quarantine_call t.base call;
    trace_quarantine t ~subject:call.Fact_base.call_id ~origin:"call machine"
  end

let feed_flood_detector t msg event =
  match Sip_event.flood_key msg with
  | None -> ()
  | Some key ->
      tick t (fun i -> i.i_inject_flood);
      trace t (Obs.Trace.Dispatch { target = "flood"; subject = key });
      penter t Obs.Prof.Detect;
      let system, _ = Fact_base.flood_detector t.base ~key in
      let faulted =
        contain t ~subject:("dst:" ^ key) ~origin:"flood detector" (fun () ->
            checked_inject t system ~machine:Invite_flood_machine.machine_name event)
      in
      pexit t Obs.Prof.Detect;
      if faulted then begin
        Fact_base.quarantine_detector t.base `Flood ~key;
        trace_quarantine t ~subject:("dst:" ^ key) ~origin:"flood detector"
      end

let feed_drdos_detector t (packet : Dsim.Packet.t) event =
  let key = Dsim.Addr.host packet.dst in
  let system, _ = Fact_base.drdos_detector t.base ~key in
  let orphan =
    Efsm.Event.make
      ~args:event.Efsm.Event.args (Efsm.Event.Data "SIP") ~at:event.Efsm.Event.at
      Drdos_machine.orphan_response
  in
  tick t (fun i -> i.i_inject_drdos);
  trace t (Obs.Trace.Dispatch { target = "drdos"; subject = key });
  penter t Obs.Prof.Detect;
  let faulted =
    contain t ~subject:("victim:" ^ key) ~origin:"drdos detector" (fun () ->
        checked_inject t system ~machine:Drdos_machine.machine_name orphan)
  in
  pexit t Obs.Prof.Detect;
  if faulted then begin
    Fact_base.quarantine_detector t.base `Drdos ~key;
    trace_quarantine t ~subject:("victim:" ^ key) ~origin:"drdos detector"
  end

(* A REGISTER crossing the boundary sensor: intra-enterprise registrations
   never reach this vantage point, so someone outside is rebinding a
   protected user's contact. *)
let check_boundary_register t msg =
  if t.config.Config.flag_boundary_register then
    match msg.Sip.Msg.start with
    | Sip.Msg.Request { meth = Sip.Msg_method.REGISTER; _ } ->
        let subject =
          match Sip.Msg.to_ msg with
          | Ok to_ ->
              let uri = to_.Sip.Name_addr.uri in
              Option.value uri.Sip.Uri.user ~default:"" ^ "@" ^ uri.Sip.Uri.host
          | Error _ -> "unknown-aor"
        in
        let contact =
          match Sip.Msg.contact msg with
          | Ok na -> Sip.Uri.to_string na.Sip.Name_addr.uri
          | Error _ -> "?"
        in
        raise_alert t
          (Alert.make ~kind:Alert.Registration_hijack ~at:(now t) ~subject
             (Printf.sprintf "REGISTER crossed the boundary sensor binding contact %s" contact))
    | Sip.Msg.Request _ | Sip.Msg.Response _ -> ()

let trace_packet t (packet : Dsim.Packet.t) proto =
  match t.flight with
  | None -> ()
  | Some fl ->
      Obs.Trace.record fl ~at:(now t)
        (Obs.Trace.Packet
           { proto; src = packet.Dsim.Packet.src; dst = packet.Dsim.Packet.dst })

let handle_sip t (packet : Dsim.Packet.t) msg =
  t.sip_packets <- t.sip_packets + 1;
  tick t (fun i -> i.i_sip);
  trace_packet t packet "sip";
  t.busy <- Dsim.Time.add t.busy t.config.Config.sip_cpu_cost;
  let event = Sip_event.of_msg ?prof:t.prof ~at:(now t) ~src:packet.src ~dst:packet.dst msg in
  check_boundary_register t msg;
  (match msg.Sip.Msg.start with
  | Sip.Msg.Request { meth = Sip.Msg_method.INVITE; _ } -> feed_flood_detector t msg event
  | Sip.Msg.Request _ | Sip.Msg.Response _ -> ());
  match Sip.Msg.call_id msg with
  | Error e ->
      t.malformed_packets <- t.malformed_packets + 1;
      tick t (fun i -> i.i_malformed);
      raise_alert t
        (Alert.make ~kind:Alert.Spec_deviation ~at:(now t)
           ~subject:(Dsim.Addr.to_string packet.src)
           (Printf.sprintf "SIP message without Call-ID: %s" e))
  | Ok call_id -> (
      match Fact_base.find_call t.base call_id with
      | Some call ->
          register_event_media t call event;
          inject_call t call event
      | None -> (
          match msg.Sip.Msg.start with
          | Sip.Msg.Request { meth = Sip.Msg_method.INVITE; _ } ->
              let call = Fact_base.create_call t.base ~call_id in
              register_event_media t call event;
              inject_call t call event
          | Sip.Msg.Request { meth = Sip.Msg_method.REGISTER; _ } ->
              (* Already reported by the boundary-REGISTER check; a
                 registration is not expected to belong to a call. *)
              ()
          | Sip.Msg.Request { meth; _ } ->
              t.orphan_requests <- t.orphan_requests + 1;
              raise_alert t
                (Alert.make ~kind:Alert.Spec_deviation ~severity:Alert.Warning ~at:(now t)
                   ~subject:(call_id ^ "/" ^ Sip.Msg_method.to_string meth)
                   "request for a call the sensor never saw established")
          | Sip.Msg.Response _ ->
              t.orphan_responses <- t.orphan_responses + 1;
              feed_drdos_detector t packet event))

(* --------------------------------------------------------------- *)
(* RTP distribution                                                 *)
(* --------------------------------------------------------------- *)

let rtp_event ~at ~src ~dst (p : Rtp.Rtp_packet.t) =
  let module V = Efsm.Value in
  Efsm.Event.make
    ~args:
      [
        (Keys.src_ip, V.Str (Dsim.Addr.host src));
        (Keys.src_port, V.Int (Dsim.Addr.port src));
        (Keys.dst_ip, V.Str (Dsim.Addr.host dst));
        (Keys.dst_port, V.Int (Dsim.Addr.port dst));
        (Keys.ssrc, V.Int (Int32.to_int p.Rtp.Rtp_packet.ssrc));
        (Keys.seq, V.Int p.Rtp.Rtp_packet.sequence);
        (Keys.ts, V.Int (Int32.to_int p.Rtp.Rtp_packet.timestamp));
        (Keys.payload_type, V.Int p.Rtp.Rtp_packet.payload_type);
        (Keys.size, V.Int (String.length p.Rtp.Rtp_packet.payload));
      ]
    (Efsm.Event.Data "RTP") ~at Keys.rtp_packet

let handle_rtp t (packet : Dsim.Packet.t) decoded =
  t.rtp_packets <- t.rtp_packets + 1;
  tick t (fun i -> i.i_rtp);
  trace_packet t packet "rtp";
  t.busy <- Dsim.Time.add t.busy t.config.Config.rtp_cpu_cost;
  let event = rtp_event ~at:(now t) ~src:packet.src ~dst:packet.dst decoded in
  (* Stream-level checks (Figure 6) run on every stream the sensor sees —
     unless the engine is degraded, in which case they are shed first:
     they are the per-packet bulk of the load and each unknown stream
     grows a new detector, while SIP signaling checks stay live. *)
  if degraded t then begin
    t.rtp_shed <- t.rtp_shed + 1;
    tick t (fun i -> i.i_rtp_shed)
  end
  else begin
    let stream_key = Dsim.Addr.to_string packet.dst in
    tick t (fun i -> i.i_inject_spam);
    trace t (Obs.Trace.Dispatch { target = "spam"; subject = stream_key });
    penter t Obs.Prof.Detect;
    let system, _ = Fact_base.spam_detector t.base ~key:stream_key in
    let faulted =
      contain t ~subject:("stream:" ^ stream_key) ~origin:"spam detector" (fun () ->
          checked_inject t system ~machine:Media_spam_machine.machine_name event)
    in
    pexit t Obs.Prof.Detect;
    if faulted then begin
      Fact_base.quarantine_detector t.base `Spam ~key:stream_key;
      trace_quarantine t ~subject:("stream:" ^ stream_key) ~origin:"spam detector"
    end
  end;
  (* Call-level cross-protocol checks (Figure 5) when the stream belongs to
     a tracked call; these stay live even degraded (they are bounded by the
     call cap and carry the BYE-DoS/billing-fraud discrimination). *)
  match Fact_base.call_for_media t.base packet.dst with
  | None -> ()
  | Some call ->
      tick t (fun i -> i.i_inject_call);
      trace t (Obs.Trace.Dispatch { target = "call"; subject = call.Fact_base.call_id });
      penter t Obs.Prof.Efsm_dispatch;
      let faulted =
        contain t ~subject:call.Fact_base.call_id ~origin:"call machine" (fun () ->
            checked_inject t call.Fact_base.system ~machine:Keys.rtp_machine event;
            Fact_base.maybe_finish t.base call)
      in
      pexit t Obs.Prof.Efsm_dispatch;
      if faulted then begin
        Fact_base.quarantine_call t.base call;
        trace_quarantine t ~subject:call.Fact_base.call_id ~origin:"call machine"
      end

(* --------------------------------------------------------------- *)
(* Entry points                                                     *)
(* --------------------------------------------------------------- *)

let dispatch t packet =
  match Classifier.classify ?prof:t.prof ~known_media:(Fact_base.known_media t.base) packet with
  | Classifier.Sip msg -> handle_sip t packet msg
  | Classifier.Rtp decoded -> handle_rtp t packet decoded
  | Classifier.Rtcp _ ->
      t.rtcp_packets <- t.rtcp_packets + 1;
      tick t (fun i -> i.i_rtcp);
      trace_packet t packet "rtcp";
      t.busy <- Dsim.Time.add t.busy t.config.Config.rtp_cpu_cost
  | Classifier.Malformed_sip e ->
      t.malformed_packets <- t.malformed_packets + 1;
      tick t (fun i -> i.i_malformed);
      trace_packet t packet "malformed-sip";
      t.busy <- Dsim.Time.add t.busy t.config.Config.sip_cpu_cost;
      raise_alert t
        (Alert.make ~kind:Alert.Spec_deviation ~at:(now t)
           ~subject:(Dsim.Addr.to_string packet.Dsim.Packet.src)
           (Printf.sprintf "unparsable SIP message: %s" e))
  | Classifier.Malformed_rtp _ ->
      t.malformed_packets <- t.malformed_packets + 1;
      tick t (fun i -> i.i_malformed);
      trace_packet t packet "malformed-rtp"
  | Classifier.Other ->
      t.other_packets <- t.other_packets + 1;
      tick t (fun i -> i.i_other)

let process_packet t packet =
  update_degradation t;
  (match t.inst with
  | None -> ()
  | Some i ->
      let occ = Float.of_int (Fact_base.occupancy t.base) in
      Obs.Metrics.set i.i_occupancy occ;
      Obs.Metrics.observe i.i_occupancy_hist occ);
  (* Outer boundary: whatever the inner per-record boundaries miss
     (classifier, parser, distributor) is contained here, so no packet —
     however crafted — can unwind the sensor's packet loop. *)
  ignore
    (contain t
       ~subject:(Dsim.Addr.to_string packet.Dsim.Packet.src)
       ~origin:"packet pipeline"
       (fun () -> dispatch t packet))

let tap t packet = process_packet t packet

(* Inline forwarding latency: a fixed per-protocol pipeline latency plus
   time spent queued behind earlier packets on the single analysis CPU
   (whose occupancy per packet is the much smaller cpu cost).  The queueing
   term is what perturbs RTP jitter under load (§7.4). *)
let transit_delay t packet =
  let pipeline, cpu =
    match Classifier.quick_protocol packet with
    | `Sip -> (t.config.Config.sip_transit_delay, t.config.Config.sip_cpu_cost)
    | `Media -> (t.config.Config.rtp_transit_delay, t.config.Config.rtp_cpu_cost)
    | `Other -> (Dsim.Time.zero, Dsim.Time.zero)
  in
  if pipeline = Dsim.Time.zero then Dsim.Time.zero
  else begin
    let at = Dsim.Scheduler.now t.sched in
    let start = Dsim.Time.max at t.inline_free_at in
    t.inline_free_at <- Dsim.Time.add start cpu;
    Dsim.Time.add (Dsim.Time.sub start at) pipeline
  end

let alerts t = List.rev t.alerts
let alerts_of_kind t kind = List.filter (fun a -> a.Alert.kind = kind) (alerts t)

let counters t =
  {
    sip_packets = t.sip_packets;
    rtp_packets = t.rtp_packets;
    rtcp_packets = t.rtcp_packets;
    other_packets = t.other_packets;
    malformed_packets = t.malformed_packets;
    orphan_requests = t.orphan_requests;
    orphan_responses = t.orphan_responses;
    alerts_raised = List.length t.alerts;
    alerts_suppressed = t.suppressed;
    anomalies = t.anomalies;
    faults = t.faults;
    rtp_shed = t.rtp_shed;
  }

let cpu_busy t = t.busy
let fact_base t = t.base
let memory_stats t = Fact_base.stats t.base
let on_alert t listener = t.listeners <- listener :: t.listeners
let on_eviction t listener = t.eviction_listeners <- listener :: t.eviction_listeners

(* --------------------------------------------------------------- *)
(* Crash safety                                                     *)
(* --------------------------------------------------------------- *)

let merge_journal_alert t alert =
  let key = Alert.dedup_key alert in
  if not (Hashtbl.mem t.seen key || Hashtbl.mem t.journal_pending key) then begin
    t.alerts <- alert :: t.alerts;
    Hashtbl.replace t.journal_pending key ()
  end

let record_downtime t ~start ~stop ~missed = t.downtime_log <- (start, stop, missed) :: t.downtime_log
let downtime_intervals t = List.rev t.downtime_log

module Persist = struct
  type dump = {
    p_counters : counters;
    p_injects : int;
    p_busy : Dsim.Time.t;
    p_inline_free_at : Dsim.Time.t;
    p_degraded_since : Dsim.Time.t option;
    p_degraded_log : (Dsim.Time.t * Dsim.Time.t) list; (* oldest first *)
    p_alerts : Alert.t list; (* oldest first *)
    p_downtime : (Dsim.Time.t * Dsim.Time.t * int) list; (* oldest first *)
  }

  let dump t =
    {
      p_counters = counters t;
      p_injects = t.injects;
      p_busy = t.busy;
      p_inline_free_at = t.inline_free_at;
      p_degraded_since = t.degraded_since;
      p_degraded_log = List.rev t.degraded_log;
      p_alerts = alerts t;
      p_downtime = downtime_intervals t;
    }

  let restore t d =
    let c = d.p_counters in
    t.sip_packets <- c.sip_packets;
    t.rtp_packets <- c.rtp_packets;
    t.rtcp_packets <- c.rtcp_packets;
    t.other_packets <- c.other_packets;
    t.malformed_packets <- c.malformed_packets;
    t.orphan_requests <- c.orphan_requests;
    t.orphan_responses <- c.orphan_responses;
    t.suppressed <- c.alerts_suppressed;
    t.anomalies <- c.anomalies;
    t.faults <- c.faults;
    t.injects <- d.p_injects;
    t.rtp_shed <- c.rtp_shed;
    t.busy <- d.p_busy;
    t.inline_free_at <- d.p_inline_free_at;
    t.degraded_since <- d.p_degraded_since;
    t.degraded_log <- List.rev d.p_degraded_log;
    t.alerts <- List.rev d.p_alerts;
    Hashtbl.reset t.seen;
    List.iter (fun a -> Hashtbl.replace t.seen (Alert.dedup_key a) ()) d.p_alerts;
    t.downtime_log <- List.rev d.p_downtime
end
