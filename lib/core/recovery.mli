(** Deterministic crash recovery.

    Composes the crash-safety pieces: restore the latest valid
    {!Snapshot}, merge the {!Journal} suffix recorded after its checkpoint
    marker (exactly-once: replayed alerts claim their journaled twins), and
    replay the {!Trace} records timestamped strictly after the snapshot.
    The recovered engine's {!Snapshot.digest} equals that of a run that
    never crashed — the convergence property the test suite checks. *)

type outcome = {
  engine : Engine.t;
  sched : Dsim.Scheduler.t;
  snapshot_seq : int;
  snapshot_at : Dsim.Time.t;
  journal_alerts : int;  (** Journal alerts merged ahead of replay. *)
  journal_evictions : int;  (** Journaled reclamations in the suffix (informational). *)
  journal_exts : int;  (** Extension records handed to [on_ext]. *)
  replayed : int;  (** Trace records replayed after the snapshot instant. *)
}

val recover :
  ?config:Config.t ->
  ?prepare:(Dsim.Scheduler.t -> Engine.t -> unit) ->
  ?on_ext:(at:Dsim.Time.t -> tag:string -> payload:string -> unit) ->
  ?inject:(Dsim.Packet.t -> unit) ->
  ?journal:Journal.entry list ->
  ?trace:Trace.record list ->
  ?until:Dsim.Time.t ->
  Snapshot.t ->
  (outcome, string) result
(** Pure-data recovery.  [prepare] runs on the restored engine before the
    journal merge, the replay scheduling and the timer re-arm — the hook an
    enforcement layer uses to rebuild its tables from the snapshot's
    extension records, and telemetry export uses to attach its registry.
    [on_ext] receives every {!Journal.Ext} entry recorded after the
    checkpoint, in append order, once the replay suffix is scheduled (so a hook that re-arms a timer loses same-instant
    ties to packets, exactly as live): replayed alerts are claimed
    exactly-once and never re-notify listeners, so decisions taken on
    them live must be restored from the journal, not re-derived.
    [inject] replaces packet delivery during replay (see
    {!Trace.schedule_into}) so a gate that dropped packets live drops the
    same packets again.  [until] bounds the clock ([run_until]); omit it to
    drain the queue — but beware that configs with a periodic sweep re-arm
    it forever, so bound governed runs. *)

type file_report = {
  outcome : outcome;
  snapshot_path : string;  (** The snapshot actually used. *)
  used_fallback : bool;  (** True when the primary was rejected and [path.1] used. *)
  rejected : (string * string) list;
      (** Snapshots rejected before one loaded, with diagnostics. *)
  journal_skipped : (int * string) list;  (** Torn/corrupt journal lines skipped. *)
  trace_skipped : (int * string) list;  (** Malformed trace lines skipped. *)
}

val recover_files :
  ?config:Config.t ->
  ?prepare:(Dsim.Scheduler.t -> Engine.t -> unit) ->
  ?on_snapshot:(Snapshot.t -> unit) ->
  ?on_ext:(at:Dsim.Time.t -> tag:string -> payload:string -> unit) ->
  ?inject:(Dsim.Packet.t -> unit) ->
  ?journal_path:string ->
  ?trace_path:string ->
  ?until:Dsim.Time.t ->
  snapshot_path:string ->
  unit ->
  (file_report, string) result
(** File-level recovery with fault tolerance end to end: a corrupted or
    truncated primary snapshot falls back to the rotated
    [Snapshot.previous_path]; journal and trace files are loaded leniently
    (missing files are treated as empty).  [on_snapshot] sees the loaded
    snapshot (after fallback selection, before any restore) — the hook for
    reading its {!Snapshot.ext} records.  [Error] only when no snapshot
    at all can be validated. *)
