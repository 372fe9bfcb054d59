(** Lowering checked ASTs into {!Efsm.Ir} transitions.

    The elaborator is syntax-directed and total: it assumes {!Check}
    already rejected ill-formed input, and maps anything unexpected to a
    harmless default (an unresolvable guard becomes [Ir.False], an
    unresolvable action is dropped) instead of raising.  Transitions are
    built with {!Efsm.Machine.ir_transition}, so loaded specs are
    compiled by the same staged closure compiler as the builtin machines
    and run on the unchanged hot path.

    Elaboration rules (also in DESIGN.md §12): [==]/[!=] are structural
    {!Efsm.Value.equal} ([Ir.Eq]); [<] [<=] [>] [>=] [=] [<>] are integer
    comparisons ([Ir.Cmp]) whose operands must be integer-shaped (an
    integer literal, [int(e)], [int0(e)], or [+]/[-] arithmetic); an
    integer-shaped expression in value position is wrapped in [Of_int], a
    predicate-shaped one in [Of_pred]. *)

type externs = {
  find_pred : string -> Efsm.Ir.opaque_pred option;
  find_act : string -> Efsm.Machine.effect Efsm.Ir.opaque_act option;
}
(** Registry for [extern] escape hatches: guards and actions (like the
    RTP wraparound arithmetic of the media-spam machine) that the linear
    IR cannot express.  Supplied by the host at load time. *)

val no_externs : externs

type elaborated = {
  el_spec : Efsm.Machine.spec;
  el_vars : Efsm.Ir.decl list;  (** Declared domains, for the verifier. *)
  el_state_spans : (string * Loc.span) list;  (** First mention of each state. *)
  el_trans_spans : (string * Loc.span) list;  (** Label -> declaration site. *)
}

val is_int_shaped : Ast.exp -> bool
(** Elaborates into the [Ir.iexpr] fragment when in value position. *)

val is_pred_shaped : Ast.exp -> bool
(** Elaborates into the [Ir.pred] fragment when in value position. *)

val machine : externs:externs -> Ast.machine -> elaborated
