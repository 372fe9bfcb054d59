(** The one checkpoint routine: the live daemon and every offline command
    ([simulate], [detect], [analyze], [profile]) save crash-safe
    checkpoints through it.

    A checkpoint captures the engine (plus the caller's extension records,
    e.g. the enforcement table) into {!Snapshot}, saves it atomically,
    appends a {!Journal.Checkpoint} marker and fsyncs the journal, so
    {!Recovery} can pair the snapshot with the journal suffix written
    after it.  With a profiler the work is timed under the [Checkpoint]
    span (the fsync under [Journal_fsync]); with a registry it exports
    [vids_ingest_checkpoints_total] and [vids_checkpoint_seconds]; with a
    flight recorder each checkpoint leaves a trace entry. *)

type t

val create :
  ?registry:Obs.Metrics.t ->
  ?flight:Obs.Trace.t ->
  ?prof:Obs.Prof.t ->
  ?journal:Journal.writer ->
  ?ext:(unit -> (string * string) list) ->
  ?before_save:(unit -> unit) ->
  path:string ->
  Dsim.Scheduler.t ->
  Engine.t ->
  t
(** [path] is the snapshot file (rotated to [path.1] on each save).
    [ext] is read at every checkpoint and stored as {!Snapshot.ext}
    records.  [before_save] runs first — the daemon flushes its capture
    tee there, so the capture is durable at least up to the snapshot
    instant. *)

val take : t -> unit
(** Checkpoints now, at the scheduler's current time, with the next
    sequence number. *)

val every : ?until:Dsim.Time.t -> t -> period:Dsim.Time.t -> unit
(** Arms periodic checkpoints on the virtual clock: one [period] from
    now, then every [period], as self-re-arming events, stopping at
    [until] when given.  A checkpoint due at a packet's instant runs after
    that packet (see {!Trace.stream}), so the snapshot includes it. *)

val count : t -> int
(** Checkpoints taken so far; also the last sequence number. *)
