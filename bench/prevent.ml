(* Prevention bench: enforcement measured end-to-end, gated in
   BENCH_prevent.json (CI fails when a gate does):

   A. Containment — an INVITE flood and legitimate call churn stream
      through the enforcing daemon.  Gates: the flood raises its alert
      and the gate then stops the attack traffic (all but the detection
      window is dropped); every installed rule names the attacker and
      every legitimate packet passes (zero false blocks); an offline
      replay of the same capture through a fresh gate converges to the
      daemon's engine digest AND its enforcement digest — the
      digest-pinned determinism the recovery story rests on.
   B. kill -9 mid-block — the same capture, hard-killed while the block
      is live; recovery from snapshot + journal + capture must converge
      to the uninterrupted run's enforcement digest and alert set, with
      the surviving rule's TTL intact.
   C. Response coverage — every [lib/attack] scenario runs on the full
      Figure-7 testbed with the enforcement gate on the sensor tap;
      each must show attack -> alert -> the mapped response (a block
      rule, a forced teardown, or both), and the flood-shaped attacks
      must measurably stop (packets dying at the gate).

   Scale from argv: [prevent.exe 400] legit calls (the default); the
   flood itself is fixed at 60 INVITEs. *)

module J = Obs.Json

let ms = Dsim.Time.of_ms
let sec = Dsim.Time.of_sec

let attacker_host = "198.51.100.99"

let invite ~call_id ~from_host ~caller ~callee =
  Printf.sprintf
    "INVITE sip:%s SIP/2.0\r\n\
     Via: SIP/2.0/UDP %s:5060;branch=z9hG4bK%s\r\n\
     From: <sip:%s>;tag=ta-%s\r\n\
     To: <sip:%s>\r\n\
     Call-ID: %s\r\n\
     CSeq: 1 INVITE\r\n\
     Contact: <sip:%s@%s:5060>\r\n\r\n"
    callee from_host call_id caller call_id callee call_id caller from_host

let response ~call_id ~caller ~callee ~code ~cseq =
  Printf.sprintf
    "SIP/2.0 %d X\r\n\
     Via: SIP/2.0/UDP 10.1.0.2:5060;branch=z9hG4bK%s\r\n\
     From: <sip:%s>;tag=ta-%s\r\n\
     To: <sip:%s>;tag=tb-%s\r\n\
     Call-ID: %s\r\nCSeq: %s\r\nContent-Length: 0\r\n\r\n"
    code call_id caller call_id callee call_id call_id cseq

let ack ~call_id ~caller ~callee =
  Printf.sprintf
    "ACK sip:%s SIP/2.0\r\n\
     Via: SIP/2.0/UDP 10.1.0.10:5060;branch=z9hG4bKa-%s\r\n\
     From: <sip:%s>;tag=ta-%s\r\n\
     To: <sip:%s>;tag=tb-%s\r\n\
     Call-ID: %s\r\nCSeq: 1 ACK\r\n\r\n"
    callee call_id caller call_id callee call_id call_id

let bye ~call_id ~caller ~callee =
  Printf.sprintf
    "BYE sip:%s SIP/2.0\r\n\
     Via: SIP/2.0/UDP 10.1.0.10:5060;branch=z9hG4bKb-%s\r\n\
     From: <sip:%s>;tag=ta-%s\r\n\
     To: <sip:%s>;tag=tb-%s\r\n\
     Call-ID: %s\r\nCSeq: 2 BYE\r\n\r\n"
    callee call_id caller call_id callee call_id call_id

(* Legitimate churn: each call gets its own callee AOR so nothing in the
   benign load resembles a flood, plus the attack: a burst of INVITEs
   from one host, each with a fresh Call-ID, aimed at one victim AOR —
   the paper's INVITE-flood shape.  The flood starts a second in, while
   legit calls keep arriving before, during and after the block. *)
let build_records ~legit_calls ~flood =
  let records = ref [] in
  let add at src dst payload = records := { Vids.Trace.at; src; dst; payload } :: !records in
  let a_sig = Dsim.Addr.v "10.1.0.2" 5060 and b_sig = Dsim.Addr.v "10.2.0.2" 5060 in
  let ( +& ) = Dsim.Time.add in
  for i = 0 to legit_calls - 1 do
    let call_id = Printf.sprintf "legit-%d" i in
    let caller = Printf.sprintf "u%d@a.example" i in
    let callee = Printf.sprintf "peer%d@b.example" i in
    let t0 = ms (float_of_int (75 * i)) in
    add t0 a_sig b_sig (invite ~call_id ~from_host:"10.1.0.2" ~caller ~callee);
    add (t0 +& ms 20.) b_sig a_sig (response ~call_id ~caller ~callee ~code:200 ~cseq:"1 INVITE");
    add (t0 +& ms 40.) a_sig b_sig (ack ~call_id ~caller ~callee);
    add (t0 +& ms 400.) a_sig b_sig (bye ~call_id ~caller ~callee);
    add (t0 +& ms 420.) b_sig a_sig (response ~call_id ~caller ~callee ~code:200 ~cseq:"2 BYE")
  done;
  let atk = Dsim.Addr.v attacker_host 5060 in
  for i = 0 to flood - 1 do
    add
      (sec 1.0 +& ms (float_of_int (40 * i)))
      atk b_sig
      (invite
         ~call_id:(Printf.sprintf "flood-%d" i)
         ~from_host:attacker_host
         ~caller:("mallory@" ^ attacker_host)
         ~callee:"victim@b.example")
  done;
  List.stable_sort
    (fun (a : Vids.Trace.record) b -> Dsim.Time.compare a.Vids.Trace.at b.Vids.Trace.at)
    !records

let tmp suffix = Filename.temp_file "vids_prevent" suffix

let cleanup paths = List.iter (fun p -> if Sys.file_exists p then Sys.remove p) paths

let alert_keys engine =
  List.sort compare (List.map Vids.Alert.dedup_key (Vids.Engine.alerts engine))

let policy = Enforce.Enforcer.default_policy

let run_daemon ?stop ?hard_kill ?on_batch ~config sources =
  let clock = Ingest.Clock.manual () in
  match Ingest.Daemon.run ~clock ?stop ?hard_kill ?on_batch config sources with
  | Error e ->
      Printf.eprintf "FAIL: daemon: %s\n" e;
      exit 1
  | Ok report -> report

(* ------------------------------------------------------------------ *)
(* Phase A: containment + digest-pinned offline replay                 *)
(* ------------------------------------------------------------------ *)

type contain_result = {
  report : Ingest.Daemon.report;
  enforcer : Enforce.Enforcer.t;
  wall_s : float;
  flood_detected : bool;
  contained : bool;
  false_blocks : int;
  legit_all_passed : bool;
  replay_engine_digest_match : bool;
  replay_enforce_digest_match : bool;
}

let offline_replay ~records ~until =
  let sched = Dsim.Scheduler.create () in
  let engine = Vids.Engine.create sched in
  let e = Enforce.Enforcer.create ~policy sched engine in
  ignore
    (Vids.Trace.replay_on ~deliver:(fun p -> ignore (Enforce.Enforcer.ingest e p)) ~until sched
       engine records);
  (engine, e)

let phase_a ~records ~path ~n_flood =
  let config =
    { Ingest.Daemon.default with Ingest.Daemon.enforce = Some policy; batch = 64 }
  in
  let report, wall_s =
    Bench_common.timed (fun () ->
        run_daemon ~config [ Ingest.Daemon.Pcap_file { path; pace = false } ])
  in
  let e = Option.get report.Ingest.Daemon.enforcer in
  let s = Enforce.Enforcer.stats e in
  let horizon = report.Ingest.Daemon.horizon in
  let flood_detected =
    Vids.Engine.alerts_of_kind report.Ingest.Daemon.engine Vids.Alert.Invite_flood <> []
  in
  (* Containment: the detection window lets a handful of flood INVITEs
     through before the alert trips; everything after the install must
     die at the gate. *)
  let contained = s.Enforce.Enforcer.blocked >= n_flood - 12 && s.Enforce.Enforcer.blocked > 0 in
  (* Zero false blocks: every rule names the attacker and nothing from
     the legitimate sources was stopped — blocked packets plus passed
     packets account for the whole capture, with blocked <= flood. *)
  let rules = Enforce.Block_table.rules (Enforce.Enforcer.table e) ~now:horizon in
  let false_blocks =
    List.length
      (List.filter
         (fun (r : Enforce.Block_table.rule) ->
           let key =
             match r.Enforce.Block_table.scope with
             | Enforce.Block_table.Src k | Enforce.Block_table.Dst k ->
                 Enforce.Source_key.to_string k
           in
           not (String.equal key attacker_host))
         rules)
  in
  let legit_all_passed =
    s.Enforce.Enforcer.blocked <= n_flood
    && s.Enforce.Enforcer.passed + s.Enforce.Enforcer.blocked = List.length records
  in
  (* The determinism pin: a cold offline replay of the recorded capture
     through a fresh gate lands on the same engine state and the same
     rule table. *)
  let offline_engine, offline_e = offline_replay ~records ~until:horizon in
  let replay_engine_digest_match =
    String.equal
      (Vids.Snapshot.digest ~at:horizon offline_engine)
      (Vids.Snapshot.digest ~at:horizon report.Ingest.Daemon.engine)
  in
  let replay_enforce_digest_match =
    String.equal (Enforce.Enforcer.digest offline_e) (Enforce.Enforcer.digest e)
  in
  {
    report;
    enforcer = e;
    wall_s;
    flood_detected;
    contained;
    false_blocks;
    legit_all_passed;
    replay_engine_digest_match;
    replay_enforce_digest_match;
  }

(* ------------------------------------------------------------------ *)
(* Phase B: kill -9 while the block is live                            *)
(* ------------------------------------------------------------------ *)

type kill_result = {
  killed_at_batch : int;
  rules_at_kill : int;
  recover_wall_s : float;
  enforce_digest_match : bool;
  alert_set_match : bool;
  blocks_survived : bool;
}

let phase_b ~records ~path ~(clean : contain_result) =
  let snap = tmp ".ck" in
  let capture = tmp ".pcap" in
  let config =
    {
      Ingest.Daemon.default with
      Ingest.Daemon.enforce = Some policy;
      batch = 64;
      checkpoint_every_s = 2.0;
      snapshot_path = Some snap;
      journal_path = Some (snap ^ ".journal");
      record_path = Some capture;
    }
  in
  let n_batches = (List.length records / config.Ingest.Daemon.batch) + 1 in
  let kill_batch = max 2 (n_batches * 7 / 10) in
  let hard_kill = ref false in
  let batches = ref 0 in
  let killed =
    run_daemon ~config ~hard_kill
      ~on_batch:(fun () ->
        incr batches;
        if !batches = kill_batch then hard_kill := true)
      [ Ingest.Daemon.Pcap_file { path; pace = false } ]
  in
  if killed.Ingest.Daemon.stop_reason <> Ingest.Daemon.Killed then begin
    Printf.eprintf "FAIL: hard kill landed after the capture ran out; raise the scale\n";
    exit 1
  end;
  let killed_e = Option.get killed.Ingest.Daemon.enforcer in
  let rules_at_kill =
    (Enforce.Enforcer.stats killed_e).Enforce.Enforcer.table.Enforce.Block_table.active
  in
  if rules_at_kill = 0 then begin
    Printf.eprintf "FAIL: the kill landed before the block was installed; raise the scale\n";
    exit 1
  end;
  let result =
    match
      Bench_common.timed (fun () ->
          (* The daemon's pcap tee, read back with its own timestamps. *)
          let trace =
            match Ingest.Pcap.read_file capture with Ok (rs, _) -> rs | Error _ -> []
          in
          Enforce.Recover.recover_files ~policy ~journal_path:(snap ^ ".journal")
            ~trace ~until:killed.Ingest.Daemon.horizon ~snapshot_path:snap ())
    with
    | Error e, _ ->
        Printf.eprintf "FAIL: recovery: %s\n" e;
        exit 1
    | Ok (fr, recovered_e), recover_wall_s ->
        let o = fr.Vids.Recovery.outcome in
        (* The clean run installed nothing after the flood window, and
           the TTL outlives the capture, so the recovered rule set must
           digest-match the never-crashed run — same rules, same
           absolute deadlines (TTLs preserved across the crash). *)
        {
          killed_at_batch = kill_batch;
          rules_at_kill;
          recover_wall_s;
          enforce_digest_match =
            String.equal
              (Enforce.Enforcer.digest recovered_e)
              (Enforce.Enforcer.digest clean.enforcer);
          alert_set_match =
            alert_keys o.Vids.Recovery.engine
            = alert_keys clean.report.Ingest.Daemon.engine;
          blocks_survived =
            (Enforce.Enforcer.stats recovered_e).Enforce.Enforcer.table
              .Enforce.Block_table.active > 0;
        }
  in
  cleanup [ snap; snap ^ ".1"; snap ^ ".journal"; capture ];
  result

(* ------------------------------------------------------------------ *)
(* Phase C: each lib/attack scenario -> alert -> enforcement response  *)
(* ------------------------------------------------------------------ *)

module T = Voip.Testbed

type scenario_result = {
  sc_name : string;
  alerted : bool;
  sc_rules : int;
  sc_teardowns : int;
  sc_blocked : int;
  responded : bool;
}

(* What the response map owes each attack kind: a block rule, a forced
   teardown, or both; the flood-shaped attacks must additionally stop —
   packets from the blocked source have to die at the gate once the
   rule lands, not just coexist with it. *)
let scenario_specs =
  [
    ("bye-dos", Vids.Alert.Bye_dos, `Teardown);
    ("cancel-dos", Vids.Alert.Cancel_dos, `Both);
    ("hijack", Vids.Alert.Call_hijack, `Both);
    ("media-spam", Vids.Alert.Media_spam, `Rule_stops);
    ("billing-fraud", Vids.Alert.Billing_fraud, `Teardown);
    ("invite-flood", Vids.Alert.Invite_flood, `Rule_stops);
    ("rtp-flood", Vids.Alert.Rtp_flood, `Rule_stops);
    ("drdos", Vids.Alert.Drdos, `Rule);
  ]

let run_scenario (sc_name, kind, want) =
  let tb = T.make ~seed:11 ~vids:T.Monitor ~config:Vids.Config.default () in
  let e = Enforce.Enforcer.create ~policy tb.T.sched (T.engine_exn tb) in
  Dsim.Network.set_tap tb.T.vids_node
    (Some (fun pkt -> ignore (Enforce.Enforcer.ingest e pkt)));
  let atk = Attack.Scenarios.create tb ~host:"203.0.113.66" in
  let at = sec 5.0 in
  let pair = 0 in
  let ua_a = List.nth tb.T.uas_a pair and ua_b = List.nth tb.T.uas_b pair in
  (match sc_name with
  | "bye-dos" -> Attack.Scenarios.spoofed_bye_call atk ~caller:ua_a ~callee:ua_b ~at
  | "cancel-dos" -> Attack.Scenarios.cancel_dos_call atk ~caller:ua_a ~callee:ua_b ~at
  | "hijack" -> Attack.Scenarios.hijack_call atk ~caller:ua_a ~callee:ua_b ~at
  | "media-spam" -> Attack.Scenarios.media_spam_call atk ~caller:ua_a ~callee:ua_b ~at
  | "billing-fraud" -> Attack.Scenarios.billing_fraud_call atk ~caller:ua_a ~callee:ua_b ~at
  | "invite-flood" ->
      Attack.Scenarios.invite_flood atk ~target:(Voip.Ua.aor ua_b) ~via_proxy:true ~count:25
        ~interval:(ms 40.0) ~at
  | "rtp-flood" ->
      Attack.Scenarios.rtp_flood atk
        ~target:(Dsim.Addr.v (T.ua_b_host tb pair) 16500)
        ~rate_pps:400 ~duration:(sec 2.0) ~at
  | "drdos" ->
      Attack.Scenarios.drdos atk ~victim_host:(T.ua_b_host tb pair) ~reflectors:20 ~responses:60
        ~at
  | other -> invalid_arg other);
  T.run_until tb (sec 40.0);
  let s = Enforce.Enforcer.stats e in
  let alerted = Vids.Engine.alerts_of_kind (T.engine_exn tb) kind <> [] in
  let sc_rules = s.Enforce.Enforcer.table.Enforce.Block_table.installed in
  let sc_teardowns = s.Enforce.Enforcer.teardowns in
  let sc_blocked = s.Enforce.Enforcer.blocked in
  let responded =
    alerted
    &&
    match want with
    | `Teardown -> sc_teardowns > 0
    | `Rule -> sc_rules > 0
    | `Both -> sc_teardowns > 0 && sc_rules > 0
    | `Rule_stops -> sc_rules > 0 && sc_blocked > 0
  in
  { sc_name; alerted; sc_rules; sc_teardowns; sc_blocked; responded }

let phase_c () = List.map run_scenario scenario_specs

(* ------------------------------------------------------------------ *)

let () =
  let legit_calls = try int_of_string Sys.argv.(1) with _ -> 400 in
  let n_flood = 60 in
  let records = build_records ~legit_calls ~flood:n_flood in
  let n_records = List.length records in
  let path = tmp ".pcap" in
  Ingest.Pcap.write_file path records;
  Printf.printf "capture: %d records (%d legit calls, %d-INVITE flood)\n%!" n_records
    legit_calls n_flood;

  let a = phase_a ~records ~path ~n_flood in
  let s = Enforce.Enforcer.stats a.enforcer in
  Printf.printf
    "containment: flood detected %b; %d blocked / %d passed in %.2f s wall; %d false block(s)\n"
    a.flood_detected s.Enforce.Enforcer.blocked s.Enforce.Enforcer.passed a.wall_s
    a.false_blocks;
  Printf.printf "offline replay: engine digest match %b, enforcement digest match %b\n"
    a.replay_engine_digest_match a.replay_enforce_digest_match;

  let b = phase_b ~records ~path ~clean:a in
  Printf.printf
    "kill -9 at batch %d (%d rule(s) live): recovered in %.2f ms; enforcement digest match \
     %b, alert set match %b\n"
    b.killed_at_batch b.rules_at_kill (1000. *. b.recover_wall_s) b.enforce_digest_match
    b.alert_set_match;
  cleanup [ path ];

  let scenarios = phase_c () in
  List.iter
    (fun r ->
      Printf.printf
        "scenario %-13s alert %b; %d rule(s), %d teardown(s), %d blocked -> %s\n" r.sc_name
        r.alerted r.sc_rules r.sc_teardowns r.sc_blocked
        (if r.responded then "responded" else "NO RESPONSE"))
    scenarios;
  let all_respond = List.for_all (fun r -> r.responded) scenarios in

  let passed =
    a.flood_detected && a.contained && a.false_blocks = 0 && a.legit_all_passed
    && a.replay_engine_digest_match && a.replay_enforce_digest_match
    && b.enforce_digest_match && b.alert_set_match && b.blocks_survived && all_respond
  in
  Bench_common.write_json ~path:"BENCH_prevent.json"
    (J.obj
       [
         ("bench", J.quote "prevent");
         ("legit_calls", J.int legit_calls);
         ("flood_invites", J.int n_flood);
         ("records", J.int n_records);
         ( "containment",
           J.obj
             [
               ("flood_detected", J.bool a.flood_detected);
               ("blocked", J.int s.Enforce.Enforcer.blocked);
               ("passed", J.int s.Enforce.Enforcer.passed);
               ("teardowns", J.int s.Enforce.Enforcer.teardowns);
               ("false_blocks", J.int a.false_blocks);
               ("wall_s", J.float a.wall_s);
               ("enforce_digest", J.quote (Enforce.Enforcer.digest a.enforcer));
             ] );
         ( "replay",
           J.obj
             [
               ("engine_digest_match", J.bool a.replay_engine_digest_match);
               ("enforce_digest_match", J.bool a.replay_enforce_digest_match);
             ] );
         ( "kill9",
           J.obj
             [
               ("killed_at_batch", J.int b.killed_at_batch);
               ("rules_at_kill", J.int b.rules_at_kill);
               ("recover_s", J.float b.recover_wall_s);
               ("enforce_digest_match", J.bool b.enforce_digest_match);
               ("alert_set_match", J.bool b.alert_set_match);
               ("blocks_survived", J.bool b.blocks_survived);
             ] );
         ( "scenarios",
           J.arr
             (List.map
                (fun r ->
                  J.obj
                    [
                      ("name", J.quote r.sc_name);
                      ("alerted", J.bool r.alerted);
                      ("rules", J.int r.sc_rules);
                      ("teardowns", J.int r.sc_teardowns);
                      ("blocked", J.int r.sc_blocked);
                      ("responded", J.bool r.responded);
                    ])
                scenarios) );
         ( "gate",
           J.obj
             [
               ("flood_detected", J.bool a.flood_detected);
               ("contained", J.bool a.contained);
               ("zero_false_blocks", J.bool (a.false_blocks = 0 && a.legit_all_passed));
               ("replay_digest_pinned",
                 J.bool (a.replay_engine_digest_match && a.replay_enforce_digest_match));
               ("kill9_converges", J.bool (b.enforce_digest_match && b.alert_set_match));
               ("blocks_survive_crash", J.bool b.blocks_survived);
               ("all_scenarios_respond", J.bool all_respond);
               ("passed", J.bool passed);
             ] );
       ]);
  if not passed then begin
    Printf.eprintf "FAIL: prevent gate\n";
    exit 1
  end
