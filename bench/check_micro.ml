(* Bench-regression gate: compare a fresh run's headline object against
   a committed baseline and fail (exit 1) when any key regressed by
   more than its tolerance. Understands both headline shapes:

   - BENCH_micro.json:  "sim_seconds_per_wall_second": {shape: N}
   - BENCH_scale.json:  "flow_seconds_per_wall_second": {"scale": N}

   The default threshold is generous — timings on shared CI runners are
   noisy — so only a real slowdown (or an accidentally-committed stale
   baseline) trips it. Per-key overrides tighten or loosen individual
   entries:

     check_micro.exe BASELINE.json FRESH.json
       [--threshold 0.25] [--tol key=frac]... [--words ROW=MAX]...
       [--events ROW=N]...

   [--words ROW=MAX] also gates allocation: the fresh run's
   minor_words_per_run for the row named ROW (with or without its
   "group/" prefix) must be at most MAX. [--events ROW=N] requires the
   row's events_per_run to be exactly N: deterministic runs fire an
   exact number of kernel events, so any change in it is a change in
   what the simulation does.

   The parser is deliberately minimal (no JSON dependency): it extracts
   the flat {"key": number} pairs inside the headline object the bench
   emitters themselves write. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let anchors =
  [ "\"sim_seconds_per_wall_second\""; "\"flow_seconds_per_wall_second\"" ]

let headline path =
  let s = read_file path in
  let start =
    let rec try_anchors = function
      | [] ->
          Printf.eprintf "check_micro: no headline anchor (%s) in %s\n"
            (String.concat " / " anchors)
            path;
          exit 2
      | a :: rest -> (
          try Str.search_forward (Str.regexp_string a) s 0
          with Not_found -> try_anchors rest)
    in
    try_anchors anchors
  in
  let obj_start = String.index_from s start '{' + 1 in
  let obj_end = String.index_from s obj_start '}' in
  let body = String.sub s obj_start (obj_end - obj_start) in
  String.split_on_char ',' body
  |> List.filter_map (fun pair ->
         match Str.split (Str.regexp "[\"{}: \n]+") pair with
         | [ key; value ] -> (
             match float_of_string_opt value with
             | Some v -> Some (key, v)
             | None -> None)
         | _ -> None)

(* [(name, value)] of one numeric field for every result row of a
   BENCH_micro.json; [None] where the file says null. *)
let field_rows path field =
  let row =
    Str.regexp
      ({|"name": "\([^"]*\)".*"|} ^ field ^ {|": \([-+.0-9eE]+\|null\)|})
  in
  String.split_on_char '\n' (read_file path)
  |> List.filter_map (fun line ->
         match Str.search_forward row line 0 with
         | _ ->
             Some
               ( Str.matched_group 1 line,
                 float_of_string_opt (Str.matched_group 2 line) )
         | exception Not_found -> None)

let row_matches ~row name =
  name = row
  ||
  let suffix = "/" ^ row in
  let n = String.length name and k = String.length suffix in
  n >= k && String.sub name (n - k) k = suffix

(* Every gate on one field; true when all hold. [bad v bound] says
   whether reading [v] breaks [bound]. *)
let check_field path ~field ~label ~bad ~show gates =
  let rows = field_rows path field in
  List.fold_left
    (fun ok (row, bound) ->
      match List.find_opt (fun (name, _) -> row_matches ~row name) rows with
      | None ->
          Printf.printf "  %s %-30s MISSING from fresh run\n" label row;
          false
      | Some (_, None) ->
          Printf.printf "  %s %-30s no reading in fresh run\n" label row;
          false
      | Some (_, Some v) ->
          let bad = bad v bound in
          Printf.printf "  %s %-30s %10.1f  (%s %.1f)%s\n" label row v show
            bound
            (if bad then "  REGRESSION" else "");
          ok && not bad)
    true (List.rev gates)

let usage () =
  prerr_endline
    "usage: check_micro BASELINE.json FRESH.json [--threshold 0.25] [--tol \
     key=frac]... [--words ROW=MAX]... [--events ROW=N]...";
  exit 2

(* [ROW=V] with V accepted by [valid]; the row name may itself contain
   '=', so the last one splits. *)
let row_bound ~flag ~valid kv =
  match String.rindex_opt kv '=' with
  | Some i -> (
      let row = String.sub kv 0 i in
      let v = String.sub kv (i + 1) (String.length kv - i - 1) in
      match float_of_string_opt v with
      | Some v when valid v && row <> "" -> (row, v)
      | _ ->
          Printf.eprintf "check_micro: bad %s bound in %S\n" flag kv;
          exit 2)
  | None ->
      Printf.eprintf "check_micro: %s expects ROW=VALUE, got %S\n" flag kv;
      exit 2

let () =
  let threshold = ref 0.25 in
  let tols : (string * float) list ref = ref [] in
  let words : (string * float) list ref = ref [] in
  let events : (string * float) list ref = ref [] in
  let paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--threshold" :: t :: rest -> (
        match float_of_string_opt t with
        | Some v when v > 0.0 ->
            threshold := v;
            parse rest
        | _ ->
            Printf.eprintf "check_micro: bad --threshold %S\n" t;
            exit 2)
    | "--tol" :: kv :: rest -> (
        match String.index_opt kv '=' with
        | Some i -> (
            let key = String.sub kv 0 i in
            let frac = String.sub kv (i + 1) (String.length kv - i - 1) in
            match float_of_string_opt frac with
            | Some v when v > 0.0 ->
                tols := (key, v) :: !tols;
                parse rest
            | _ ->
                Printf.eprintf "check_micro: bad --tol fraction in %S\n" kv;
                exit 2)
        | None ->
            Printf.eprintf "check_micro: --tol expects key=frac, got %S\n" kv;
            exit 2)
    | "--words" :: kv :: rest ->
        words :=
          row_bound ~flag:"--words" ~valid:(fun v -> v >= 0.0) kv :: !words;
        parse rest
    | "--events" :: kv :: rest ->
        events :=
          row_bound ~flag:"--events"
            ~valid:(fun v -> v >= 0.0 && Float.is_integer v)
            kv
          :: !events;
        parse rest
    | [ ("--threshold" | "--tol" | "--words" | "--events") ] -> usage ()
    | p :: rest ->
        paths := p :: !paths;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let baseline_path, fresh_path =
    match List.rev !paths with [ b; f ] -> (b, f) | _ -> usage ()
  in
  let baseline = headline baseline_path in
  let fresh = headline fresh_path in
  if baseline = [] then begin
    Printf.eprintf "check_micro: empty baseline headline in %s\n" baseline_path;
    exit 2
  end;
  let failed = ref false in
  List.iter
    (fun (key, base) ->
      let tol =
        match List.assoc_opt key !tols with Some t -> t | None -> !threshold
      in
      match List.assoc_opt key fresh with
      | None ->
          Printf.printf "  %-18s baseline %10.1f  -> MISSING from fresh run\n"
            key base;
          failed := true
      | Some f ->
          let change = (f -. base) /. base in
          let bad = change < -.tol in
          Printf.printf
            "  %-18s baseline %10.1f  fresh %10.1f  (%+.1f%%, tol %.0f%%)%s\n"
            key base f (100.0 *. change) (100.0 *. tol)
            (if bad then "  REGRESSION" else "");
          if bad then failed := true)
    baseline;
  if !failed then begin
    Printf.eprintf "check_micro: headline regressed beyond tolerance\n";
    exit 1
  end;
  if
    not
      (check_field fresh_path !words ~field:"minor_words_per_run" ~label:"words"
         ~show:"max" ~bad:( > ))
  then begin
    Printf.eprintf "check_micro: a row allocates more than its --words bound\n";
    exit 1
  end;
  if
    not
      (check_field fresh_path !events ~field:"events_per_run" ~label:"events"
         ~show:"exactly" ~bad:( <> ))
  then begin
    Printf.eprintf "check_micro: a row fired other than its --events count\n";
    exit 1
  end;
  Printf.printf "check_micro: headline within tolerance of baseline\n"
