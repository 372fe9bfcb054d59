(** Packet records, sensor-tap capture and the one replay loop.

    An online vIDS taps live traffic; this module gives it the pcap-style
    workflow: record the packets crossing the sensor (written to disk as
    libpcap by [Ingest.Pcap]), then re-run the full analysis pipeline over
    them later.  Replay reconstructs virtual time from the recorded
    timestamps so every timer-based pattern (flood windows, the BYE grace
    period T) behaves exactly as it did live.

    Every consumer — the live daemon, [analyze], crash recovery, the
    benches — drives the engine through {!stream}, so offline tools run
    the same code the sensor runs. *)

type record = {
  at : Dsim.Time.t;  (** Capture timestamp. *)
  src : Dsim.Addr.t;
  dst : Dsim.Addr.t;
  payload : string;  (** Raw wire bytes. *)
}

(** {1 Capture} *)

type recorder

val recorder : unit -> recorder

val tap : recorder -> Dsim.Scheduler.t -> Dsim.Packet.t -> unit
(** Shaped for [Dsim.Network.set_tap] after partial application. *)

val records : recorder -> record list
(** Chronological. *)

(** {1 Replay} *)

val stream : ?deliver:(Dsim.Packet.t -> unit) -> Dsim.Scheduler.t -> Engine.t -> record -> unit
(** [stream sched engine] is the replay step; apply it once per run and
    call the result on each record in time order.  Each call runs
    [Dsim.Scheduler.advance_to] the record's timestamp — timers strictly
    before it fire, timers due at that instant stay queued — and then
    delivers the packet.  That is the one rule of replay: at an instant,
    packets beat timers.  A record behind the clock is delivered at the
    clock (time never moves backwards).  [deliver] replaces the default
    [Engine.process_packet]; an enforcement layer passes its gate so a
    replay drops exactly the packets the live run dropped. *)

val replay_on :
  ?deliver:(Dsim.Packet.t -> unit) ->
  ?until:Dsim.Time.t ->
  Dsim.Scheduler.t ->
  Engine.t ->
  record list ->
  int
(** Streams [records] (sorted by time, stably; those after [until]
    dropped) through {!stream}, then runs the clock: to [until] with
    [run_until], or until the queue drains when [until] is omitted —
    beware that configs whose periodic sweep re-arms itself never drain,
    so bound governed runs.  Returns how many records were streamed. *)

val replay :
  ?config:Config.t -> ?until:Dsim.Time.t -> record list -> Dsim.Scheduler.t * Engine.t
(** {!replay_on} over a fresh scheduler and engine.  Records need not be
    sorted.  Stop at a fixed [until] for digest comparison at a common
    instant (see [Snapshot.digest]). *)
