type record = { at : Dsim.Time.t; src : Dsim.Addr.t; dst : Dsim.Addr.t; payload : string }

type recorder = { mutable entries : record list }

let recorder () = { entries = [] }

let tap t sched (packet : Dsim.Packet.t) =
  let at = Dsim.Scheduler.now sched in
  t.entries <- { at; src = packet.src; dst = packet.dst; payload = packet.payload } :: t.entries

let records t = List.rev t.entries

let stream ?deliver sched engine =
  let alloc = Dsim.Packet.allocator () in
  let deliver = match deliver with Some f -> f | None -> Engine.process_packet engine in
  fun r ->
    let at = Dsim.Time.max r.at (Dsim.Scheduler.now sched) in
    Dsim.Scheduler.advance_to sched at;
    deliver (Dsim.Packet.make alloc ~src:r.src ~dst:r.dst ~sent_at:at r.payload)

let replay_on ?deliver ?until sched engine records =
  let due r = match until with None -> true | Some limit -> Dsim.Time.( <= ) r.at limit in
  let records =
    List.stable_sort (fun a b -> Dsim.Time.compare a.at b.at) (List.filter due records)
  in
  List.iter (stream ?deliver sched engine) records;
  (match until with
  | Some limit -> Dsim.Scheduler.run_until sched limit
  | None -> Dsim.Scheduler.run sched);
  List.length records

let replay ?config ?until records =
  let sched = Dsim.Scheduler.create () in
  let engine = Engine.create ?config sched in
  ignore (replay_on ?until sched engine records);
  (sched, engine)
