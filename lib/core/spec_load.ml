module I = Efsm.Ir
module E = Efsm.Event
module Env = Efsm.Env
module V = Efsm.Value

let known_machines =
  [
    Keys.sip_machine;
    Keys.rtp_machine;
    Keys.invite_flood_machine;
    Keys.media_spam_machine;
    Keys.drdos_machine;
  ]

(* ------------------------------------------------------------------ *)
(* Host side of the media-spam machine's [extern] names                *)
(* ------------------------------------------------------------------ *)

let l_ssrc = "l_ssrc"
let l_seq = "l_sequence_number"
let l_ts = "l_time_stamp"
let l_count = "l_window_count"
let lv n = (Env.Local, n)
let get_int env name = match Env.get env Env.Local name with V.Int n -> n | _ -> 0

(* The paper's spam predicate:
   (x.time_stamp_{i+1} - v.time_stamp_i > Δt) or
   (x.sequence_number_{i+1} - v.sequence_number_i > Δn),
   extended with an SSRC identity check, a replay (deep reorder) check, and
   a talkspurt refinement: a packet whose sequence number is consecutive
   may jump further in timestamp (silence suppression emits no packets but
   the media clock keeps running — the paper's own codec settings enable
   SAD, which the raw rule would flag).  An injector cannot hide behind the
   refinement without giving up the sequence-number advance it needs for
   its packets to win the receiver's playout.

   The wraparound deltas are beyond the IR's linear arithmetic, so the
   predicate stays an opaque escape hatch with declared reads; sharing one
   [pred_name] between the [spam] and [in_order] guards is what lets the
   solver still discharge their disjointness propositionally. *)
let is_spam config env event =
  let ssrc_mismatch = not (V.equal (E.arg event Keys.ssrc) (Env.get env Env.Local l_ssrc)) in
  ssrc_mismatch
  ||
  let seq_jump = Rtp.Rtp_packet.seq_delta (get_int env l_seq) (E.arg_int event Keys.seq) in
  let ts_jump =
    Rtp.Rtp_packet.ts_delta
      (Int32.of_int (get_int env l_ts))
      (Int32.of_int (E.arg_int event Keys.ts))
  in
  let ts_limit =
    if seq_jump >= 1 && seq_jump <= 2 then config.Config.spam_silence_ts_gap
    else config.Config.spam_ts_gap
  in
  seq_jump > config.Config.spam_seq_gap
  || seq_jump < -config.Config.spam_reorder_tolerance
  || ts_jump > ts_limit
  || ts_jump < -(config.Config.spam_ts_gap * 4)

let is_spam_opaque config =
  {
    I.pred_name = "is_spam";
    pred_reads = [ lv l_ssrc; lv l_seq; lv l_ts ];
    pred_fields = [ Keys.ssrc; Keys.seq; Keys.ts ];
    holds = (fun env event -> is_spam config env event);
  }

(* Only move the baseline forward so reordered packets cannot drag it
   backwards.  The seq_delta comparison wraps, hence opaque. *)
let advance_opaque =
  {
    I.act_name = "advance_baseline";
    act_reads = [ lv l_seq; lv l_count ];
    act_writes = [ lv l_seq; lv l_ts; lv l_count ];
    act_emits = [];
    run =
      (fun env event ->
        let seq = E.arg_int event Keys.seq in
        let ts = E.arg_int event Keys.ts in
        if Rtp.Rtp_packet.seq_delta (get_int env l_seq) seq > 0 then begin
          Env.set env Env.Local l_seq (V.Int seq);
          Env.set env Env.Local l_ts (V.Int ts)
        end;
        Env.set env Env.Local l_count (V.Int (get_int env l_count + 1));
        []);
  }

let host_constant (config : Config.t) = function
  | "invite_flood_threshold" -> Some config.invite_flood_threshold
  | "invite_flood_window" -> Some (Dsim.Time.to_us config.invite_flood_window)
  | "bye_inflight_timer" -> Some (Dsim.Time.to_us config.bye_inflight_timer)
  | "rtp_flood_threshold" -> Some config.rtp_flood_threshold
  | "rtp_flood_window" -> Some (Dsim.Time.to_us config.rtp_flood_window)
  | "drdos_threshold" -> Some config.drdos_threshold
  | "drdos_window" -> Some (Dsim.Time.to_us config.drdos_window)
  | _ -> None

let externs config =
  let spam = is_spam_opaque config in
  {
    Spec.Elaborate.find_pred = (function "is_spam" -> Some spam | _ -> None);
    find_act = (function "advance_baseline" -> Some advance_opaque | _ -> None);
    find_int = host_constant config;
  }

(* ------------------------------------------------------------------ *)
(* Builtins                                                            *)
(* ------------------------------------------------------------------ *)

type builtin = { key : string; source : string; ast : Spec.Ast.machine }

(* Parsed once per process, on first use: ~1 ms for the five files. *)
let embedded =
  lazy
    (List.map
       (fun (file, source) ->
         match Spec.Parser.parse ~file source with
         | [ ast ], [] ->
             let key =
               String.map (function '_' -> '-' | c -> c) (Filename.remove_extension file)
             in
             { key; source; ast }
         | _ -> failwith ("embedded spec does not parse to one machine: " ^ file))
       Builtin_specs.sources)

let find name =
  List.find_opt
    (fun b -> String.equal b.key name || String.equal b.ast.Spec.Ast.m_name name)
    (Lazy.force embedded)

(* The shipped files are checked by the test suite; a failure here is a
   build defect, not bad input. *)
let elaborate config b =
  let externs = externs config in
  let fail msg = failwith (Printf.sprintf "builtin %s: %s" b.key msg) in
  (match List.filter Spec.Diag.is_error (Spec.Check.machine ~known_machines ~externs b.ast) with
  | [] -> ()
  | d :: _ -> fail (Spec.Diag.render d));
  let el = Spec.Elaborate.machine ~externs b.ast in
  match Efsm.Machine.validate_spec el.Spec.Elaborate.el_spec with
  | Ok () -> (el.Spec.Elaborate.el_spec, el.Spec.Elaborate.el_vars)
  | Error msg -> fail msg

let builtins config = List.map (fun b -> (b.key, elaborate config b)) (Lazy.force embedded)
let builtin_for config name = Option.map (elaborate config) (find name)
let builtin_source name = Option.map (fun b -> b.source) (find name)

let systems config =
  let all = builtins config in
  let is_call ((spec : Efsm.Machine.spec), _) =
    List.mem spec.spec_name [ Keys.sip_machine; Keys.rtp_machine ]
  in
  ("call", List.filter is_call (List.map snd all))
  :: List.filter_map (fun (key, m) -> if is_call m then None else Some (key, [ m ])) all

(* ------------------------------------------------------------------ *)
(* Overrides                                                           *)
(* ------------------------------------------------------------------ *)

let load_files config paths =
  match
    Spec.Front_end.load_files ~known_machines ~externs:(externs config) paths
  with
  | Error e -> Error e
  | Ok (loaded, diags, sources) ->
      let unknown =
        List.filter
          (fun (l : Spec.Front_end.loaded) ->
            not (List.mem l.Spec.Front_end.l_name known_machines))
          loaded
      in
      if Spec.Diag.has_errors diags || unknown <> [] then
        let rendered =
          List.map
            (fun (d : Spec.Diag.t) ->
              let source =
                List.assoc_opt d.Spec.Diag.span.Spec.Loc.s.Spec.Loc.file sources
              in
              Spec.Diag.render ?source d)
            diags
          @ List.map
              (fun (l : Spec.Front_end.loaded) ->
                Printf.sprintf
                  "%s: machine %s does not override a builtin (expected one of %s)"
                  l.Spec.Front_end.l_file l.Spec.Front_end.l_name
                  (String.concat ", " known_machines))
              unknown
        in
        Error (String.concat "\n" rendered)
      else
        Ok
          (List.map
             (fun (l : Spec.Front_end.loaded) ->
               (l.Spec.Front_end.l_name, l.Spec.Front_end.l_spec))
             loaded)
