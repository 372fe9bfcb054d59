type t = {
  path : string;
  sched : Dsim.Scheduler.t;
  engine : Engine.t;
  journal : Journal.writer option;
  ext : unit -> (string * string) list;
  before_save : unit -> unit;
  prof : Obs.Prof.t option;
  flight : Obs.Trace.t option;
  saved : Obs.Metrics.counter option;
  seconds : Obs.Metrics.histogram option;
  mutable seq : int;
}

let create ?registry ?flight ?prof ?journal ?(ext = fun () -> []) ?(before_save = ignore) ~path
    sched engine =
  {
    path;
    sched;
    engine;
    journal;
    ext;
    before_save;
    prof;
    flight;
    saved =
      Option.map
        (fun m -> Obs.Metrics.counter m "vids_ingest_checkpoints_total" ~help:"Checkpoints saved")
        registry;
    seconds =
      Option.map
        (fun m ->
          Obs.Metrics.histogram m "vids_checkpoint_seconds"
            ~help:"Wall-clock duration of one checkpoint (capture + save + journal marker)")
        registry;
    seq = 0;
  }

let span t stage f =
  match t.prof with
  | None -> f ()
  | Some p ->
      Obs.Prof.enter p stage;
      f ();
      Obs.Prof.exit p stage

let take t =
  span t Obs.Prof.Checkpoint (fun () ->
      let t0 = Unix.gettimeofday () in
      t.before_save ();
      let at = Dsim.Scheduler.now t.sched in
      let seq = t.seq + 1 in
      Snapshot.save ~path:t.path (Snapshot.capture ~seq ~ext:(t.ext ()) ~at t.engine);
      t.seq <- seq;
      Option.iter
        (fun w ->
          Journal.append w (Journal.Checkpoint { at; seq });
          span t Obs.Prof.Journal_fsync (fun () -> Journal.fsync_writer w))
        t.journal;
      Option.iter Obs.Metrics.incr t.saved;
      Option.iter (fun h -> Obs.Metrics.observe h (Unix.gettimeofday () -. t0)) t.seconds;
      Option.iter (fun fl -> Obs.Trace.record fl ~at (Obs.Trace.Checkpoint { seq })) t.flight)

let every ?until t ~period =
  let rec arm at =
    if match until with None -> true | Some limit -> Dsim.Time.( < ) at limit then
      ignore
        (Dsim.Scheduler.schedule_at t.sched at (fun () ->
             take t;
             arm (Dsim.Time.add at period)))
  in
  arm (Dsim.Time.add (Dsim.Scheduler.now t.sched) period)

let count t = t.seq
