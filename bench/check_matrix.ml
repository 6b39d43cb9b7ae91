(* Statistical regression gate + corpus lint for the scenario matrix.

   compare mode (default):
     check_matrix.exe --baseline BENCH_matrix.json --candidate NEW.json
       [--alpha A] [--rel-tol R] [--abs-tol T]
   Exit 0 when every (id, metric) cell of the candidate is
   statistically compatible with the baseline (Welch-style test plus a
   practical-significance tolerance; see lib/scenario/gate.mli), 1 on
   regressions, shape changes (missing/added cells), or bad input.

   lint mode:
     check_matrix.exe --lint DIR [--trials N]
   Load every *.scn under DIR as the sweep does (Grid.load_dir: grid
   expansion, spec validation of every combination, directory-wide
   instance-id uniqueness), then compile each instance's topology.
   Exit 1 on the first invalid file. *)

module Scn = Proteus_scenario
module Gate = Scn.Gate

let usage () =
  prerr_endline
    "usage: check_matrix.exe --baseline FILE --candidate FILE\n\
    \         [--alpha A] [--rel-tol R] [--abs-tol T]\n\
    \       check_matrix.exe --lint DIR [--trials N]";
  exit 1

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("check_matrix: " ^ m); exit 1) fmt

(* ---------- lint ---------- *)

let lint dir ~trials =
  let corpus =
    match Scn.Grid.load_dir dir ~trials with
    | Ok c -> c
    | Error e -> die "%s" e
  in
  List.iter
    (fun (path, instances) ->
      (* The spec must also survive compilation onto the net layer
         (topology + routes + protocols). *)
      List.iter
        (fun (i : Scn.Grid.instance) ->
          match Scn.Build.topology i.spec with
          | _ -> ()
          | exception (Invalid_argument m | Failure m) ->
              die "%s [%s]: %s" path i.id m)
        instances;
      Printf.printf "%-44s ok (%d instances)\n" (Filename.basename path)
        (List.length instances))
    corpus;
  Printf.printf "lint ok: %d files, %d instances at %d trial(s)\n"
    (List.length corpus)
    (List.fold_left (fun n (_, is) -> n + List.length is) 0 corpus)
    trials;
  exit 0

(* ---------- compare ---------- *)

let compare_files ~cfg ~baseline ~candidate =
  let parse which path =
    match Gate.parse_bench path with
    | Ok rows -> rows
    | Error e -> die "%s: %s" which e
  in
  let b = parse "baseline" baseline and c = parse "candidate" candidate in
  let v = Gate.compare_rows ~cfg ~baseline:b ~candidate:c () in
  Printf.printf "compared %d cells (%d baseline, %d candidate)\n" v.compared
    (List.length b) (List.length c);
  List.iter
    (fun r -> Printf.printf "REGRESSION %s\n" (Gate.describe_regression r))
    v.regressions;
  List.iter
    (fun (r : Gate.row) -> Printf.printf "MISSING %s %s\n" r.id r.metric)
    v.missing;
  List.iter
    (fun (r : Gate.row) -> Printf.printf "ADDED %s %s\n" r.id r.metric)
    v.added;
  if Gate.passed v then begin
    Printf.printf "matrix gate: PASS\n";
    exit 0
  end
  else begin
    Printf.printf "matrix gate: FAIL (%d regressions, %d missing, %d added)\n"
      (List.length v.regressions) (List.length v.missing)
      (List.length v.added);
    exit 1
  end

let () =
  let baseline = ref None
  and candidate = ref None
  and lint_dir = ref None
  and trials = ref 1
  and cfg = ref Gate.default in
  let num name s =
    match float_of_string_opt s with
    | Some x when x > 0.0 -> x
    | _ -> die "%s expects a positive number, got %S" name s
  in
  let rec parse = function
    | [] -> ()
    | "--baseline" :: f :: rest ->
        baseline := Some f;
        parse rest
    | "--candidate" :: f :: rest ->
        candidate := Some f;
        parse rest
    | "--lint" :: d :: rest ->
        lint_dir := Some d;
        parse rest
    | "--trials" :: n :: rest ->
        (match int_of_string_opt n with
        | Some t when t >= 1 -> trials := t
        | _ -> die "--trials expects a positive integer, got %S" n);
        parse rest
    | "--alpha" :: a :: rest ->
        cfg := { !cfg with Gate.alpha = num "--alpha" a };
        parse rest
    | "--rel-tol" :: r :: rest ->
        cfg := { !cfg with Gate.rel_tol = num "--rel-tol" r };
        parse rest
    | "--abs-tol" :: t :: rest ->
        cfg := { !cfg with Gate.abs_tol = num "--abs-tol" t };
        parse rest
    | ("--help" | "-h") :: _ -> usage ()
    | a :: _ -> die "unknown argument %S" a
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!lint_dir, !baseline, !candidate) with
  | Some d, None, None -> lint d ~trials:!trials
  | None, Some b, Some c -> compare_files ~cfg:!cfg ~baseline:b ~candidate:c
  | _ -> usage ()
