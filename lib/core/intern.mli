(** Hash-consed string keys for the hot path.

    The fact base looks calls up by Call-ID on every SIP packet.  Interning
    maps each distinct key string to a small integer id, so the string is
    hashed exactly once per operation (with {!hash}) and every secondary
    structure — the call table, the media index, the eviction queue — works
    on cheap integer keys instead of rehashing and re-comparing the
    string. *)

val hash : string -> int
(** FNV-1a over the bytes, folded to a non-negative OCaml [int]; the intern
    table buckets by this value. *)

type t
(** An intern table.  Ids are dense, starting at 0; released ids are
    recycled, so the id space stays proportional to the {e live} key set
    even under sustained key churn. *)

val create : ?size:int -> unit -> t

val intern : t -> string -> int
(** The id for this string, allocating one on first sight.  Ids released
    with {!release} are reused before the table grows. *)

val find : t -> string -> int option
(** The id if already interned, without allocating. *)

val name : t -> int -> string
(** The string behind an id.  Raises [Invalid_argument] on an id never
    handed out; a released id answers [""]. *)

val release : t -> int -> unit
(** Forgets the binding behind an id and recycles the id for a future
    {!intern}.  Idempotent; a caller that keeps a released id around must
    be prepared for [intern] to hand the same id to a {e different} string
    later (the fact base disambiguates with per-record serials). *)

val count : t -> int
(** Number of live (interned and not released) strings. *)
