(** Static verification of EFSM specifications and composed systems.

    Guard-level reasoning over the declarative {!Efsm.Ir} syntax carried
    by IR-built transitions:

    - {b determinism}: pairwise guard disjointness per (state, trigger)
      via {!Solver.satisfiable}, statically discharging the runtime
      [Nondeterministic] outcome;
    - {b reachability}: transitions with unsatisfiable guards are pruned
      before the reachable/dead-end/attack-state checks;
    - {b variables}: init-before-use (may/must dataflow over the pruned
      graph, sequential within action lists), assignments outside the
      declared domain, dead variables;
    - {b timers}: [Set_timer] with no expiry transition, [Cancel_timer]
      of a never-set id, expiry transitions for never-set timers;
    - {b sync channels} (system-level): orphan [Send_sync],
      receive-without-sender, unreachable receivers, send/receive cycles
      between machines, cross-machine global dataflow.

    Transitions built from raw closures (no [syntax]) degrade the
    affected passes to warnings rather than silently assuming anything
    about their guards. *)

type machine_report = {
  spec_name : string;
  findings : Finding.t list;  (** Sorted most-severe first. *)
  determinism_discharged : bool;
      (** True when every overlapping transition pair was proved
          guard-disjoint: [Machine.step] can never return
          [Nondeterministic] for this spec. *)
  pairs_checked : int;  (** Overlapping (state, trigger) pairs examined. *)
  reachable : string list;  (** States reachable through satisfiable guards. *)
  pruned_transitions : string list;  (** Labels whose guards are unsatisfiable. *)
}

type report = { machines : machine_report list; system_findings : Finding.t list }

val machine_errors : machine_report -> Finding.t list
val all_findings : report -> Finding.t list
val has_errors : report -> bool

val triggers_overlap : Efsm.Machine.trigger -> Efsm.Machine.trigger -> bool
(** Can a single concrete event match both triggers? *)

val verify_spec : ?vars:Efsm.Ir.decl list -> Efsm.Machine.spec -> machine_report
(** [vars], when given, declares the spec's variable domains and enables
    the undeclared-assignment and domain-mismatch checks (and sharpens
    the solver's bounded enumeration). *)

val verify_system : (Efsm.Machine.spec * Efsm.Ir.decl list) list -> report
(** Verifies each spec individually, then the sync-channel and global
    dataflow coupling across the composed system. *)
