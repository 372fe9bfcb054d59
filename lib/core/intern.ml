(* FNV-1a, 64-bit folded into OCaml's 63-bit int.  Chosen over Hashtbl.hash
   because it reads every byte (Call-IDs from an attacker may share long
   prefixes) and is stable across runs. *)
let hash s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Int64.to_int !h land max_int

module Keyed = struct
  type t = string

  let equal = String.equal
  let hash = hash
end

module Table = Hashtbl.Make (Keyed)

type t = {
  ids : int Table.t;
  mutable names : string array; (* id -> string; released slots hold "" *)
  mutable next : int; (* high-water mark: ids in [0, next) have been handed out *)
  mutable free : int list; (* released ids awaiting reuse *)
  mutable live : int;
}

let create ?(size = 256) () =
  { ids = Table.create size; names = Array.make (max 1 size) ""; next = 0; free = []; live = 0 }

let intern t s =
  match Table.find_opt t.ids s with
  | Some id -> id
  | None ->
      let id =
        match t.free with
        | id :: rest ->
            t.free <- rest;
            id
        | [] ->
            let id = t.next in
            if id = Array.length t.names then begin
              let grown = Array.make (2 * Array.length t.names) "" in
              Array.blit t.names 0 grown 0 id;
              t.names <- grown
            end;
            t.next <- id + 1;
            id
      in
      t.names.(id) <- s;
      Table.replace t.ids s id;
      t.live <- t.live + 1;
      id

let find t s = Table.find_opt t.ids s

let name t id =
  if id < 0 || id >= t.next then invalid_arg (Printf.sprintf "Intern.name: unknown id %d" id);
  t.names.(id)

let release t id =
  if id >= 0 && id < t.next then begin
    let s = t.names.(id) in
    match Table.find_opt t.ids s with
    | Some id' when id' = id ->
        Table.remove t.ids s;
        t.names.(id) <- "";
        t.free <- id :: t.free;
        t.live <- t.live - 1
    | Some _ | None -> () (* already released *)
  end

let count t = t.live
