(* Shared wire helpers for the crash-safety subsystem: hex, CRC-32, and
   self-delimiting token codecs for events and alerts.  Every decoder is
   total — malformed input yields [Error], never an exception — because
   snapshots and journals are read back after crashes that may have torn
   them mid-write. *)

let hex = Efsm.Value.hex_of_string
let add_hex = Efsm.Value.add_hex
let unhex = Efsm.Value.string_of_hex

(* --------------------------------------------------------------- *)
(* CRC-32 (IEEE 802.3, reflected)                                   *)
(* --------------------------------------------------------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32_bytes b ~pos ~len =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code (Bytes.get b i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = crc32_bytes (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
let crc_to_hex c = Printf.sprintf "%08x" c
let crc32_hex s = crc_to_hex (crc32 s)

(* --------------------------------------------------------------- *)
(* Token-list plumbing                                              *)
(* --------------------------------------------------------------- *)

let ( let* ) = Result.bind

let int_tok s = match int_of_string_opt s with Some n -> Ok n | None -> Error ("bad int " ^ s)
let time_tok s = Result.map Dsim.Time.of_us (int_tok s)

let opt_time_tok = function
  | "-" -> Ok None
  | s -> Result.map (fun t -> Some t) (time_tok s)

let add_int buf n = Buffer.add_string buf (string_of_int n)
let add_time buf t = add_int buf (Dsim.Time.to_us t)

let add_opt_time buf = function None -> Buffer.add_char buf '-' | Some t -> add_time buf t

let take = function [] -> Error "truncated record" | tok :: rest -> Ok (tok, rest)

(* --------------------------------------------------------------- *)
(* Events                                                           *)
(* --------------------------------------------------------------- *)

let add_channel buf = function
  | Efsm.Event.Data proto ->
      Buffer.add_char buf 'D';
      add_hex buf proto
  | Efsm.Event.Sync { from_machine } ->
      Buffer.add_char buf 'S';
      add_hex buf from_machine
  | Efsm.Event.Timer -> Buffer.add_char buf 'T'

let channel_of_token tok =
  if String.length tok = 0 then Error "empty channel token"
  else
    let body = String.sub tok 1 (String.length tok - 1) in
    match tok.[0] with
    | 'D' -> Result.map (fun proto -> Efsm.Event.Data proto) (unhex body)
    | 'S' -> Result.map (fun from_machine -> Efsm.Event.Sync { from_machine }) (unhex body)
    | 'T' -> if body = "" then Ok Efsm.Event.Timer else Error "bad timer channel token"
    | _ -> Error "unknown channel token"

(* [<name-hex> <at_us> <chan> <argc> (<key-hex> <value>)*] — the explicit
   argument count makes the encoding self-delimiting inside a longer
   token list. *)
let add_event buf (e : Efsm.Event.t) =
  add_hex buf e.Efsm.Event.name;
  Buffer.add_char buf ' ';
  add_time buf e.Efsm.Event.at;
  Buffer.add_char buf ' ';
  add_channel buf e.Efsm.Event.channel;
  Buffer.add_char buf ' ';
  add_int buf (List.length e.Efsm.Event.args);
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ' ';
      add_hex buf k;
      Buffer.add_char buf ' ';
      Efsm.Value.add_token buf v)
    e.Efsm.Event.args

let event_of_tokens tokens =
  let* name_hex, rest = take tokens in
  let* name = unhex name_hex in
  let* at_tok, rest = take rest in
  let* at = time_tok at_tok in
  let* chan_tok, rest = take rest in
  let* channel = channel_of_token chan_tok in
  let* argc_tok, rest = take rest in
  let* argc = int_tok argc_tok in
  if argc < 0 || argc > 1024 then Error "unreasonable event arg count"
  else
    let rec args acc n rest =
      if n = 0 then Ok (List.rev acc, rest)
      else
        let* k_hex, rest = take rest in
        let* k = unhex k_hex in
        let* v_tok, rest = take rest in
        let* v = Efsm.Value.of_token v_tok in
        args ((k, v) :: acc) (n - 1) rest
    in
    let* args, rest = args [] argc rest in
    Ok (Efsm.Event.make ~args channel ~at name, rest)

(* --------------------------------------------------------------- *)
(* Alerts                                                           *)
(* --------------------------------------------------------------- *)

let add_alert buf (a : Alert.t) =
  add_time buf a.Alert.at;
  Buffer.add_char buf ' ';
  Buffer.add_string buf (Alert.kind_to_string a.Alert.kind);
  Buffer.add_char buf ' ';
  Buffer.add_string buf (Alert.severity_to_string a.Alert.severity);
  Buffer.add_char buf ' ';
  add_hex buf a.Alert.subject;
  Buffer.add_char buf ' ';
  add_hex buf a.Alert.detail

let alert_of_tokens = function
  | [ at_tok; kind_tok; sev_tok; subject_hex; detail_hex ] -> (
      let* at = time_tok at_tok in
      let* subject = unhex subject_hex in
      let* detail = unhex detail_hex in
      match (Alert.kind_of_string kind_tok, Alert.severity_of_string sev_tok) with
      | Some kind, Some severity -> Ok (Alert.make ~kind ~severity ~at ~subject detail)
      | None, _ -> Error ("unknown alert kind " ^ kind_tok)
      | _, None -> Error ("unknown alert severity " ^ sev_tok))
  | _ -> Error "malformed alert record"
