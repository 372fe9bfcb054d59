(** The machine specifications the engine runs, and loading external
    [.vspec] overrides of them.

    The five builtin machines are the shipped [examples/specs/*.vspec]
    files, embedded in the library at build time: SIP and RTP per call
    (paper Figures 2a and 5), the INVITE flood (Figure 4) and media
    spam / RTP flood (Figure 6) detectors, and the DRDoS detector.  The
    text is parsed once per process, on first use; each engine checks
    and elaborates it under its own {!Config.t}, whose thresholds,
    windows and timers the specs read as host constants
    ([extern invite_flood_threshold], ...). *)

val known_machines : string list
(** Machine names the engine instantiates — valid [sync] targets and the
    only names an override may use. *)

val externs : Config.t -> Spec.Elaborate.externs
(** The host side of every [extern] name under [config]:
    - [extern is_spam] / [extern advance_baseline], the media-spam
      machine's RTP wraparound arithmetic (the paper's Δn/Δt spam
      predicate, with the [spam_*] fields of [config]);
    - the host constants [invite_flood_threshold], [invite_flood_window],
      [bye_inflight_timer], [rtp_flood_threshold], [rtp_flood_window],
      [drdos_threshold] and [drdos_window], the [config] fields of the
      same names (windows and timers in microseconds). *)

val builtins : Config.t -> (string * (Efsm.Machine.spec * Efsm.Ir.decl list)) list
(** CLI-facing key (e.g. ["media-spam"], from the file name) to builtin
    spec and declared variable domains, elaborated under [config]. *)

val builtin_for : Config.t -> string -> (Efsm.Machine.spec * Efsm.Ir.decl list) option
(** Accepts either the CLI key ["media-spam"] or the machine name
    ["MEDIA_SPAM"]; elaborates only that machine. *)

val builtin_source : string -> string option
(** The embedded [.vspec] text of a builtin (CLI key or machine name),
    byte-identical to the shipped file. *)

val systems : Config.t -> (string * (Efsm.Machine.spec * Efsm.Ir.decl list) list) list
(** The builtins grouped the way {!Fact_base} couples them: ["call"]
    (SIP and RTP share each call's globals and δ messages), then each
    detector alone under its CLI key. *)

val load_files :
  Config.t -> string list -> ((string * Efsm.Machine.spec) list, string) result
(** Loads override machines for [--spec].  Every loaded machine must
    name a member of {!known_machines} (the engine only instantiates
    those); front-end or verifier errors render into the [Error]
    message with caret snippets. *)
