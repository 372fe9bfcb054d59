type call = {
  call_id : string;
  key : int; (* interned Call-ID id; all secondary structures use this *)
  serial : int; (* unique per record: disambiguates a recycled [key] *)
  system : Efsm.System.t;
  sip : Efsm.Machine.t;
  rtp : Efsm.Machine.t;
  created_at : Dsim.Time.t;
  mutable media_addrs : Dsim.Addr.t list;
  mutable closing : bool;
  mutable finish_pending : bool;
  (* Absolute deadlines of the lifecycle timers, recorded so a checkpoint
     can re-arm them at the same virtual time after a restore. *)
  mutable delete_at : Dsim.Time.t option;
  mutable recheck_at : Dsim.Time.t option;
}

type detector = {
  d_system : Efsm.System.t;
  d_machine : Efsm.Machine.t;
  d_created : Dsim.Time.t;
  d_serial : int;
  (* Last lookup time: detectors are keyed by attacker-controlled values
     (media streams, victim addresses), so an idle record is reclaimed by
     the ageing sweep just like an abandoned call.  Persisted in snapshots
     so a recovered engine sweeps at the same virtual times. *)
  mutable d_touched : Dsim.Time.t;
}

type detector_kind = [ `Flood | `Spam | `Drdos ]

type t = {
  config : Config.t;
  (* [.vspec]-loaded replacements for builtin machine specs, keyed by
     machine name (e.g. "SIP"); builtins are the fallback. *)
  overrides : (string * Efsm.Machine.spec) list;
  timer_host : Efsm.System.timer_host;
  on_alert : machine:string -> state:string -> subject:string -> detail:string -> unit;
  on_anomaly :
    machine:string ->
    state:string ->
    subject:string ->
    event:Efsm.Event.t ->
    detail:string ->
    unit;
  on_pressure : subject:string -> detail:string -> unit;
  (* Call-ID strings are interned to dense ints ({!Intern}): the string is
     hashed once per lookup and the call table, media index and eviction
     queue all key on the cheap int instead of rehashing the string. *)
  ids : Intern.t;
  calls : (int, call) Hashtbl.t;
  media_index : (string, int) Hashtbl.t; (* media addr -> interned call id *)
  floods : (string, detector) Hashtbl.t;
  spams : (string, detector) Hashtbl.t;
  drdoses : (string, detector) Hashtbl.t;
  (* Creation-order queues back oldest-first eviction in O(1) amortized:
     entries are validated lazily against the live tables, so a record
     deleted through the normal lifecycle just leaves a stale entry to be
     skipped.  The per-record serial disambiguates a key recycled after
     deletion; amortized compaction keeps the queues proportional to the
     live record count under sustained churn. *)
  call_order : (int * int) Queue.t; (* key, serial *)
  detector_order : (detector_kind * string * int) Queue.t; (* kind, key, serial *)
  mutable next_serial : int;
  mutable peak : int;
  mutable created : int;
  mutable deleted : int;
  mutable calls_evicted : int;
  mutable detectors_evicted : int;
  mutable swept : int;
  mutable dswept : int;
  mutable sweep_timer : Dsim.Scheduler.timer option;
  mutable sweep_next : Dsim.Time.t option;
}

let create ?(on_pressure = fun ~subject:_ ~detail:_ -> ()) ?(overrides = []) ~config
    ~timer_host ~on_alert ~on_anomaly () =
  {
    config;
    overrides;
    timer_host;
    on_alert;
    on_anomaly;
    on_pressure;
    ids = Intern.create ();
    calls = Hashtbl.create 256;
    media_index = Hashtbl.create 256;
    floods = Hashtbl.create 64;
    spams = Hashtbl.create 256;
    drdoses = Hashtbl.create 64;
    call_order = Queue.create ();
    detector_order = Queue.create ();
    next_serial = 0;
    peak = 0;
    created = 0;
    deleted = 0;
    calls_evicted = 0;
    detectors_evicted = 0;
    swept = 0;
    dswept = 0;
    sweep_timer = None;
    sweep_next = None;
  }

(* Builtin specs are built per record (they close over config), so the
   override lookup keys on the spec name the builtin would have had. *)
let resolve_spec t (spec : Efsm.Machine.spec) =
  match List.assoc_opt spec.Efsm.Machine.spec_name t.overrides with
  | Some replacement -> replacement
  | None -> spec

let find_call t call_id =
  match Intern.find t.ids call_id with
  | None -> None
  | Some key -> Hashtbl.find_opt t.calls key

let system_callbacks t ~subject =
  let on_alert (n : Efsm.System.notification) =
    t.on_alert ~machine:n.Efsm.System.machine ~state:n.Efsm.System.state ~subject
      ~detail:n.Efsm.System.detail
  in
  let on_anomaly (n : Efsm.System.notification) =
    t.on_anomaly ~machine:n.Efsm.System.machine ~state:n.Efsm.System.state ~subject
      ~event:n.Efsm.System.event ~detail:n.Efsm.System.detail
  in
  (on_alert, on_anomaly)

let media_key addr = Dsim.Addr.to_string addr

let fresh_serial t =
  let s = t.next_serial in
  t.next_serial <- s + 1;
  s

(* Stale queue entries are skipped lazily, but under sustained churn the
   skip debt itself is a leak: rebuild the queue once it outgrows twice the
   live population (amortized O(1) per deletion). *)
let compact_call_order t =
  if Queue.length t.call_order > (2 * Hashtbl.length t.calls) + 64 then begin
    let keep = Queue.create () in
    Queue.iter
      (fun ((key, serial) as entry) ->
        match Hashtbl.find_opt t.calls key with
        | Some call when call.serial = serial -> Queue.add entry keep
        | Some _ | None -> ())
      t.call_order;
    Queue.clear t.call_order;
    Queue.transfer keep t.call_order
  end

let delete_call t call =
  match Hashtbl.find_opt t.calls call.key with
  | Some live when live == call ->
      Efsm.System.release call.system;
      List.iter
        (fun addr ->
          match Hashtbl.find_opt t.media_index (media_key addr) with
          | Some k when k = call.key -> Hashtbl.remove t.media_index (media_key addr)
          | Some _ | None -> ())
        call.media_addrs;
      Hashtbl.remove t.calls call.key;
      t.deleted <- t.deleted + 1;
      (* Recycle the interned Call-ID: without this, every distinct id ever
         seen pins a string + table entry forever — the live-word creep the
         soak bench observed under call churn. *)
      Intern.release t.ids call.key;
      compact_call_order t
  | Some _ | None -> () (* already deleted, or the key was recycled *)

(* Drop the oldest live call; stale queue entries (normal deletions,
   Call-ID reuse) are skipped. *)
let rec evict_oldest_call t =
  match Queue.take_opt t.call_order with
  | None -> ()
  | Some (key, serial) -> (
      match Hashtbl.find_opt t.calls key with
      | Some call when call.serial = serial ->
          delete_call t call;
          t.calls_evicted <- t.calls_evicted + 1;
          (* Constant subject: the engine dedups alerts by kind|subject, so
             a sustained flood logs one alert while counters carry the
             totals — the alert log must not grow with the attack. *)
          t.on_pressure ~subject:"fact-base/calls"
            ~detail:
              (Printf.sprintf "call %s evicted: %d-call cap reached" call.call_id
                 t.config.Config.max_calls)
      | Some _ | None -> evict_oldest_call t)

let create_call t ~call_id =
  let key = Intern.intern t.ids call_id in
  match Hashtbl.find_opt t.calls key with
  | Some call ->
      (* Attacker-controlled input must never raise: a duplicate Call-ID
         resumes the existing record. *)
      call
  | None ->
      let cap = t.config.Config.max_calls in
      if cap > 0 && Hashtbl.length t.calls >= cap then evict_oldest_call t;
      let on_alert, on_anomaly = system_callbacks t ~subject:call_id in
      let system = Efsm.System.create ~on_alert ~on_anomaly t.timer_host in
      let sip = Efsm.System.add_machine system (resolve_spec t (Sip_call_machine.spec t.config)) in
      let rtp = Efsm.System.add_machine system (resolve_spec t (Rtp_call_machine.spec t.config)) in
      let call =
        {
          call_id;
          key;
          serial = fresh_serial t;
          system;
          sip;
          rtp;
          created_at = t.timer_host.Efsm.System.now ();
          media_addrs = [];
          closing = false;
          finish_pending = false;
          delete_at = None;
          recheck_at = None;
        }
      in
      Hashtbl.replace t.calls key call;
      Queue.add (key, call.serial) t.call_order;
      t.created <- t.created + 1;
      let active = Hashtbl.length t.calls in
      if active > t.peak then t.peak <- active;
      call

let register_media t call addr =
  if not (List.exists (Dsim.Addr.equal addr) call.media_addrs) then begin
    call.media_addrs <- addr :: call.media_addrs;
    Hashtbl.replace t.media_index (media_key addr) call.key
  end

let call_for_media t addr =
  match Hashtbl.find_opt t.media_index (media_key addr) with
  | None -> None
  | Some key -> Hashtbl.find_opt t.calls key

let known_media t addr = Hashtbl.mem t.media_index (media_key addr)

let detector_table t = function
  | `Flood -> t.floods
  | `Spam -> t.spams
  | `Drdos -> t.drdoses

let detector_count t =
  Hashtbl.length t.floods + Hashtbl.length t.spams + Hashtbl.length t.drdoses

let occupancy t = Hashtbl.length t.calls + detector_count t

let kind_label = function `Flood -> "flood" | `Spam -> "spam" | `Drdos -> "drdos"

let compact_detector_order t =
  if Queue.length t.detector_order > (2 * detector_count t) + 64 then begin
    let keep = Queue.create () in
    Queue.iter
      (fun ((kind, key, serial) as entry) ->
        match Hashtbl.find_opt (detector_table t kind) key with
        | Some d when d.d_serial = serial -> Queue.add entry keep
        | Some _ | None -> ())
      t.detector_order;
    Queue.clear t.detector_order;
    Queue.transfer keep t.detector_order
  end

let remove_detector t kind ~key =
  let table = detector_table t kind in
  match Hashtbl.find_opt table key with
  | None -> false
  | Some d ->
      Efsm.System.release d.d_system;
      Hashtbl.remove table key;
      compact_detector_order t;
      true

let rec evict_oldest_detector t =
  match Queue.take_opt t.detector_order with
  | None -> ()
  | Some (kind, key, serial) -> (
      match Hashtbl.find_opt (detector_table t kind) key with
      | Some d when d.d_serial = serial ->
          ignore (remove_detector t kind ~key);
          t.detectors_evicted <- t.detectors_evicted + 1;
          t.on_pressure ~subject:"fact-base/detectors"
            ~detail:
              (Printf.sprintf "detector %s evicted: %d-detector cap reached"
                 (kind_label kind ^ ":" ^ key)
                 t.config.Config.max_detectors)
      | Some _ | None -> evict_oldest_detector t)

let detector kind t ~key ~make_spec ~subject_prefix =
  let table = detector_table t kind in
  match Hashtbl.find_opt table key with
  | Some d ->
      d.d_touched <- t.timer_host.Efsm.System.now ();
      (d.d_system, d.d_machine)
  | None ->
      let cap = t.config.Config.max_detectors in
      if cap > 0 && detector_count t >= cap then evict_oldest_detector t;
      let subject = subject_prefix ^ key in
      let on_alert, on_anomaly = system_callbacks t ~subject in
      let d_system = Efsm.System.create ~on_alert ~on_anomaly t.timer_host in
      let d_machine = Efsm.System.add_machine d_system (resolve_spec t (make_spec t.config)) in
      let d_created = t.timer_host.Efsm.System.now () in
      let d_serial = fresh_serial t in
      Hashtbl.replace table key { d_system; d_machine; d_created; d_serial; d_touched = d_created };
      Queue.add (kind, key, d_serial) t.detector_order;
      (d_system, d_machine)

let flood_detector t ~key =
  detector `Flood t ~key ~make_spec:Invite_flood_machine.spec ~subject_prefix:"dst:"

let spam_detector t ~key =
  detector `Spam t ~key ~make_spec:Media_spam_machine.spec ~subject_prefix:"stream:"

let drdos_detector t ~key =
  detector `Drdos t ~key ~make_spec:Drdos_machine.spec ~subject_prefix:"victim:"

(* --------------------------------------------------------------- *)
(* Fault quarantine                                                 *)
(* --------------------------------------------------------------- *)

let quarantine_call t call = delete_call t call
let quarantine_detector t kind ~key = ignore (remove_detector t kind ~key)

let rtp_done call =
  Efsm.Machine.is_final call.rtp
  || String.equal (Efsm.Machine.state call.rtp) Rtp_call_machine.st_init

(* Lifecycle timers are armed against an absolute deadline that is also
   recorded on the call, so a checkpoint can re-arm them at the same
   virtual time after a restore. *)
let delay_until t at =
  let now = t.timer_host.Efsm.System.now () in
  if Dsim.Time.( > ) at now then Dsim.Time.sub at now else Dsim.Time.zero

let arm_delete_at t call at =
  call.closing <- true;
  call.delete_at <- Some at;
  ignore (t.timer_host.Efsm.System.set (delay_until t at) (fun () -> delete_call t call))

let schedule_delete t call =
  arm_delete_at t call
    (Dsim.Time.add (t.timer_host.Efsm.System.now ()) t.config.Config.closed_call_linger)

let arm_recheck_at t call at =
  call.finish_pending <- true;
  call.recheck_at <- Some at;
  ignore
    (t.timer_host.Efsm.System.set (delay_until t at) (fun () ->
         call.recheck_at <- None;
         if (not call.closing) && Efsm.Machine.is_final call.sip && rtp_done call then
           schedule_delete t call))

let maybe_finish t call =
  if (not call.closing) && Efsm.Machine.is_final call.sip then
    if rtp_done call then schedule_delete t call
    else if not call.finish_pending then
      (* The RTP machine is waiting out the in-flight grace timer; no
         further packet may arrive to re-trigger this check, so look once
         more after the grace period.  A single re-check only: a machine
         parked in an attack state never becomes final, and re-polling
         forever would keep an otherwise-drained scheduler alive — such
         records are left for [sweep]. *)
      arm_recheck_at t call
        (Dsim.Time.add
           (t.timer_host.Efsm.System.now ())
           (Dsim.Time.add t.config.Config.bye_inflight_timer (Dsim.Time.of_ms 50.0)))

let sweep t ~max_age =
  let now = t.timer_host.Efsm.System.now () in
  let stale =
    Hashtbl.fold
      (fun _ call acc ->
        if Dsim.Time.( > ) (Dsim.Time.sub now call.created_at) max_age then call :: acc else acc)
      t.calls []
  in
  List.iter (delete_call t) stale;
  List.length stale

(* Detectors have no final state and no lifecycle deletion: without ageing,
   every distinct media stream or victim address ever seen keeps a record
   (and its machine history) forever — unbounded growth under key churn.
   A detector untouched for [max_age] has produced any alert it ever will
   for that traffic; reclaim it and let a fresh instance be built if the
   key recurs. *)
let sweep_detectors t ~max_age =
  let now = t.timer_host.Efsm.System.now () in
  let stale =
    List.concat_map
      (fun kind ->
        Hashtbl.fold
          (fun key d acc ->
            if Dsim.Time.( > ) (Dsim.Time.sub now d.d_touched) max_age then (kind, key) :: acc
            else acc)
          (detector_table t kind) [])
      [ `Flood; `Spam; `Drdos ]
  in
  List.iter (fun (kind, key) -> ignore (remove_detector t kind ~key)) stale;
  List.length stale

let arm_sweep t ~delay =
  let interval = t.config.Config.sweep_interval in
  let max_age = t.config.Config.call_max_age in
  let rec arm delay =
    t.sweep_next <- Some (Dsim.Time.add (t.timer_host.Efsm.System.now ()) delay);
    t.sweep_timer <- Some (t.timer_host.Efsm.System.set delay tick)
  and tick () =
    let reclaimed = sweep t ~max_age in
    let d_reclaimed = sweep_detectors t ~max_age in
    if reclaimed + d_reclaimed > 0 then begin
      t.swept <- t.swept + reclaimed;
      t.dswept <- t.dswept + d_reclaimed;
      t.on_pressure ~subject:"sweep"
        ~detail:
          (Printf.sprintf
             "scheduled sweep reclaimed %d call(s) and %d idle detector(s) older than %.0f s"
             reclaimed d_reclaimed (Dsim.Time.to_sec max_age))
    end;
    arm interval
  in
  arm delay

let sweep_enabled t =
  Dsim.Time.( > ) t.config.Config.sweep_interval Dsim.Time.zero
  && Dsim.Time.( > ) t.config.Config.call_max_age Dsim.Time.zero

let schedule_sweep t = if sweep_enabled t then arm_sweep t ~delay:t.config.Config.sweep_interval

let next_sweep_at t = t.sweep_next

let set_next_sweep t at =
  (match t.sweep_timer with
  | Some handle ->
      t.timer_host.Efsm.System.cancel handle;
      t.sweep_timer <- None;
      t.sweep_next <- None
  | None -> ());
  match at with
  | None -> ()
  | Some at ->
      if sweep_enabled t then
        arm_sweep t
          ~delay:
            (let now = t.timer_host.Efsm.System.now () in
             if Dsim.Time.( > ) at now then Dsim.Time.sub at now else Dsim.Time.zero)

(* --------------------------------------------------------------- *)
(* Checkpoint support                                               *)
(* --------------------------------------------------------------- *)

let kind_of_label = function
  | "flood" -> Some `Flood
  | "spam" -> Some `Spam
  | "drdos" -> Some `Drdos
  | _ -> None

(* Live records in creation order, straight from the eviction queues
   (stale entries skipped).  Creation order is deterministic for a given
   packet stream, which keeps snapshots canonical: two engines that
   processed the same traffic serialize identically. *)
let calls_in_creation_order t =
  Queue.fold
    (fun acc (key, serial) ->
      match Hashtbl.find_opt t.calls key with
      | Some call when call.serial = serial -> call :: acc
      | Some _ | None -> acc)
    [] t.call_order
  |> List.rev

let detectors_in_creation_order t =
  Queue.fold
    (fun acc (kind, key, serial) ->
      match Hashtbl.find_opt (detector_table t kind) key with
      | Some d when d.d_serial = serial ->
          (kind, key, d.d_system, d.d_machine, d.d_created, d.d_touched) :: acc
      | Some _ | None -> acc)
    [] t.detector_order
  |> List.rev

(* Rebuild a record from a snapshot: fresh machines wired to the usual
   callbacks, but no counter bumps and no eviction — aggregate counters are
   restored separately and a snapshot never exceeds the caps it was taken
   under. *)
let restore_call t ~call_id ~created_at =
  let key = Intern.intern t.ids call_id in
  if Hashtbl.mem t.calls key then
    invalid_arg (Printf.sprintf "Fact_base.restore_call: duplicate call %S" call_id);
  let on_alert, on_anomaly = system_callbacks t ~subject:call_id in
  let system = Efsm.System.create ~on_alert ~on_anomaly t.timer_host in
  let sip = Efsm.System.add_machine system (resolve_spec t (Sip_call_machine.spec t.config)) in
  let rtp = Efsm.System.add_machine system (resolve_spec t (Rtp_call_machine.spec t.config)) in
  let call =
    {
      call_id;
      key;
      serial = fresh_serial t;
      system;
      sip;
      rtp;
      created_at;
      media_addrs = [];
      closing = false;
      finish_pending = false;
      delete_at = None;
      recheck_at = None;
    }
  in
  Hashtbl.replace t.calls key call;
  Queue.add (key, call.serial) t.call_order;
  call

let restore_detector t kind ~key ~created_at ~touched =
  let table = detector_table t kind in
  if Hashtbl.mem table key then
    invalid_arg
      (Printf.sprintf "Fact_base.restore_detector: duplicate %s detector %S" (kind_label kind) key);
  let make_spec, subject_prefix =
    match kind with
    | `Flood -> (Invite_flood_machine.spec, "dst:")
    | `Spam -> (Media_spam_machine.spec, "stream:")
    | `Drdos -> (Drdos_machine.spec, "victim:")
  in
  let on_alert, on_anomaly = system_callbacks t ~subject:(subject_prefix ^ key) in
  let d_system = Efsm.System.create ~on_alert ~on_anomaly t.timer_host in
  let d_machine = Efsm.System.add_machine d_system (resolve_spec t (make_spec t.config)) in
  let d_serial = fresh_serial t in
  Hashtbl.replace table key
    { d_system; d_machine; d_created = created_at; d_serial; d_touched = touched };
  Queue.add (kind, key, d_serial) t.detector_order;
  (d_system, d_machine)

let set_counters t ~peak ~created ~deleted ~calls_evicted ~detectors_evicted ~swept
    ~detectors_swept =
  t.peak <- peak;
  t.created <- created;
  t.deleted <- deleted;
  t.calls_evicted <- calls_evicted;
  t.detectors_evicted <- detectors_evicted;
  t.swept <- swept;
  t.dswept <- detectors_swept

type stats = {
  active_calls : int;
  peak_calls : int;
  calls_created : int;
  calls_deleted : int;
  calls_evicted : int;
  detectors_evicted : int;
  calls_swept : int;
  detectors_swept : int;
  detectors : int;
  modeled_bytes : int;
  measured_bytes : int;
}

let stats t =
  let active = Hashtbl.length t.calls in
  let per_call = t.config.Config.sip_state_bytes + t.config.Config.rtp_state_bytes in
  let measured =
    Hashtbl.fold (fun _ call acc -> acc + Efsm.System.estimated_bytes call.system) t.calls 0
  in
  {
    active_calls = active;
    peak_calls = t.peak;
    calls_created = t.created;
    calls_deleted = t.deleted;
    calls_evicted = t.calls_evicted;
    detectors_evicted = t.detectors_evicted;
    calls_swept = t.swept;
    detectors_swept = t.dswept;
    detectors = detector_count t;
    modeled_bytes = active * per_call;
    measured_bytes = measured;
  }
