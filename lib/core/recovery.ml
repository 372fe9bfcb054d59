(* Deterministic recovery: snapshot + journal suffix + trace replay.

   The convergence contract (proved by the property tests and measured by
   bench/recovery): restoring the latest valid snapshot, merging journal
   entries recorded after its checkpoint marker, and replaying the trace
   records timestamped strictly after it yields an engine whose canonical
   digest equals that of a run that never crashed.

   Ordering is the delicate part.  Journal alerts are merged first (their
   dedup keys go pending, so replay re-raising them stays exactly-once),
   then the replay suffix is scheduled, and only then are restored timers
   re-armed — packets scheduled before timers win same-instant ties, just
   as in an uninterrupted run where every packet is scheduled up front. *)

type outcome = {
  engine : Engine.t;
  sched : Dsim.Scheduler.t;
  snapshot_seq : int;
  snapshot_at : Dsim.Time.t;
  journal_alerts : int;
  journal_evictions : int;
  journal_exts : int;
  replayed : int;
}

let recover ?config ?prepare ?on_ext ?inject ?(journal = []) ?(trace = []) ?until snapshot =
  let snapshot_at = Snapshot.at snapshot in
  let snapshot_seq = Snapshot.seq snapshot in
  let suffix = Journal.suffix_after ~seq:snapshot_seq ~at:snapshot_at journal in
  let alerts = List.filter_map (function Journal.Alert a -> Some a | _ -> None) suffix in
  let evictions =
    List.length (List.filter (function Journal.Eviction _ -> true | _ -> false) suffix)
  in
  let exts =
    List.filter_map
      (function Journal.Ext { at; tag; payload } -> Some (at, tag, payload) | _ -> None)
      suffix
  in
  let packets =
    List.filter (fun (r : Trace.record) -> Dsim.Time.( > ) r.Trace.at snapshot_at) trace
  in
  let replayed = ref 0 in
  let before_timers sched engine =
    (* Caller hook first, before any packet or journal entry lands: an
       enforcement layer uses it to rebuild its state from the snapshot's
       extension records; telemetry export attaches its registry. *)
    (match prepare with None -> () | Some f -> f sched engine);
    List.iter (Engine.merge_journal_alert engine) alerts;
    replayed := Trace.schedule_into ?inject sched engine packets;
    (* Journaled extension records recorded after the checkpoint, in
       append order: replayed alerts are claimed (exactly-once) and never
       re-notify listeners, so actions taken on them live must be restored
       from the journal, not re-derived.  Applied after the replay suffix
       is scheduled: an extension that re-arms a timer (e.g. a journaled
       call teardown) must lose same-instant ties to packets, exactly as
       live, where the packet that triggered the action was already
       executing when the timer was armed. *)
    (match on_ext with
    | None -> ()
    | Some f -> List.iter (fun (at, tag, payload) -> f ~at ~tag ~payload) exts)
  in
  match Snapshot.restore ?config ~before_timers snapshot with
  | Error e -> Error e
  | Ok (sched, engine) ->
      (match until with
      | Some limit -> Dsim.Scheduler.run_until sched limit
      | None -> Dsim.Scheduler.run sched);
      Ok
        {
          engine;
          sched;
          snapshot_seq;
          snapshot_at;
          journal_alerts = List.length alerts;
          journal_evictions = evictions;
          journal_exts = List.length exts;
          replayed = !replayed;
        }

(* --------------------------------------------------------------- *)
(* From files                                                       *)
(* --------------------------------------------------------------- *)

type file_report = {
  outcome : outcome;
  snapshot_path : string;  (** The snapshot actually used. *)
  used_fallback : bool;  (** True when the primary was rejected and [path.1] used. *)
  rejected : (string * string) list;  (** Snapshots rejected before one loaded, with reasons. *)
  journal_skipped : (int * string) list;
  trace_skipped : (int * string) list;
}

let load_with_fallback path =
  match Snapshot.load path with
  | Ok snap -> Ok (snap, path, false, [])
  | Error primary_err -> (
      let fallback = Snapshot.previous_path path in
      if not (Sys.file_exists fallback) then Error [ (path, primary_err) ]
      else
        match Snapshot.load fallback with
        | Ok snap -> Ok (snap, fallback, true, [ (path, primary_err) ])
        | Error fallback_err -> Error [ (path, primary_err); (fallback, fallback_err) ])

let recover_files ?config ?prepare ?on_snapshot ?on_ext ?inject ?journal_path ?trace_path ?until
    ~snapshot_path () =
  match load_with_fallback snapshot_path with
  | Error rejected ->
      Error
        (String.concat "; "
           (List.map (fun (p, e) -> Printf.sprintf "%s: %s" p e) rejected))
  | Ok (snapshot, used_path, used_fallback, rejected) -> (
      (match on_snapshot with None -> () | Some f -> f snapshot);
      let journal, journal_skipped =
        match journal_path with
        | None -> ([], [])
        | Some p when not (Sys.file_exists p) -> ([], [])
        | Some p -> (
            match Journal.load_lenient p with
            | Ok (entries, skipped) -> (entries, skipped)
            | Error _ -> ([], []))
      in
      let trace, trace_skipped =
        match trace_path with
        | None -> ([], [])
        | Some p -> (
            match open_in_bin p with
            | exception Sys_error _ -> ([], [])
            | ic ->
                let r = Trace.load_lenient ic in
                close_in ic;
                r)
      in
      match recover ?config ?prepare ?on_ext ?inject ~journal ~trace ?until snapshot with
      | Error e -> Error e
      | Ok outcome ->
          Ok
            {
              outcome;
              snapshot_path = used_path;
              used_fallback;
              rejected;
              journal_skipped;
              trace_skipped;
            })
