(** Recursive-descent parser for [.vspec] text.

    Never raises: grammar violations become [Diag.Parse] diagnostics and
    the parser resynchronizes at the next [;] or [}], so one typo does
    not hide the rest of the file's defects.  See DESIGN.md §12 for the
    grammar. *)

val parse : file:string -> string -> Ast.file * Diag.t list
(** Lexes and parses [.vspec] source.  The AST is whatever could be
    recovered; callers must treat it as meaningful only when the
    diagnostic list carries no errors. *)
