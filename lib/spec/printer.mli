(** Canonical [.vspec] rendering.

    [print_file] is the canonical printer: [Parser.parse] of its output
    yields a span-ignoring structurally equal AST (the qcheck round-trip
    property in the test suite), and every shipped
    [examples/specs/*.vspec] file is already in this canonical form. *)

val print_exp : Ast.exp -> string

val print_machine : Ast.machine -> string

val print_file : Ast.file -> string
