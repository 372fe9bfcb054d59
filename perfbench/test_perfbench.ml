(* The benchmark's own checks: seeded generation is reproducible, the
   benign workloads expect no alerts, and the metric names the benchmark
   emits are the ones BENCHMARK.json declares. *)

let tc name f = Alcotest.test_case name `Quick f

(* Records are plain data (times, addresses, payload bytes), so
   structural equality is byte identity. *)
let seeded () =
  List.iter
    (fun (name, w) ->
      let a = Gen.make w ~seed:7 and b = Gen.make w ~seed:7 and c = Gen.make w ~seed:8 in
      Alcotest.(check bool) (name ^ ": same seed, same records") true (a.Gen.records = b.Gen.records);
      Alcotest.(check bool) (name ^ ": same seed, same oracle") true (a.Gen.oracle = b.Gen.oracle);
      Alcotest.(check bool) (name ^ ": other seed, other records") false
        (a.Gen.records = c.Gen.records))
    Gen.workloads

let oracles () =
  List.iter
    (fun (name, w) ->
      let g = Gen.make w ~seed:3 in
      let hostile = w = Gen.Hostile_prevent in
      Alcotest.(check bool) (name ^ ": alerts expected only when hostile") hostile (g.Gen.oracle <> []);
      Alcotest.(check bool) (name ^ ": every record benign unless hostile") (not hostile)
        (Array.for_all Fun.id g.Gen.benign);
      Alcotest.(check bool) (name ^ ": gate only when hostile") hostile g.Gen.enforce)
    Gen.workloads

let find pat text from =
  let n = String.length pat in
  let rec go i =
    if i + n > String.length text then None
    else if String.sub text i n = pat then Some i
    else go (i + 1)
  in
  go from

(* Values of every ["key": "value"] pair in [text], in order. *)
let string_fields key text =
  let pat = Printf.sprintf "\"%s\": \"" key in
  let rec go from acc =
    match find pat text from with
    | None -> List.rev acc
    | Some i ->
        let start = i + String.length pat in
        let stop = String.index_from text start '"' in
        go stop (String.sub text start (stop - start) :: acc)
  in
  go 0 []

let section text ~from ~until =
  let a = Option.get (find from text 0) in
  let b = match until with Some u -> Option.get (find u text a) | None -> String.length text in
  String.sub text a (b - a)

let names_match_benchmark_json () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let check what declared sec =
    Alcotest.(check (list string)) (what ^ " names") (List.map fst declared) (string_fields "name" sec);
    Alcotest.(check (list string)) (what ^ " units") (List.map snd declared) (string_fields "unit" sec);
    List.iter
      (fun (n, _) -> Alcotest.(check bool) ("valid name " ^ n) true (Names.valid n))
      declared
  in
  check "end-to-end" Names.end_to_end
    (section text ~from:"\"end_to_end\"" ~until:(Some "\"per_layer\""));
  check "per-layer" Names.per_layer (section text ~from:"\"per_layer\"" ~until:None);
  Alcotest.(check (list string)) "workloads" (List.map fst Gen.workloads)
    (string_fields "name" (section text ~from:"\"workloads\"" ~until:(Some "\"end_to_end\"")))

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          tc "same seed same records" seeded;
          tc "benign oracles empty" oracles;
          tc "metric names match BENCHMARK.json" names_match_benchmark_json;
        ] );
    ]
