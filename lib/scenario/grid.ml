(* Template expansion: a scenario file is a (scenario ...) form whose
   optional (grid ENTRY ...) clause turns it into a template. An entry
   is (NAME VALUE...) or a tuple ((NAME...) (VALUE...) ...) binding
   several names per row. Every $NAME atom in the body is substituted
   with each combination of entry values (cartesian product, first
   entry varying slowest), and each combination runs [trials] seeded
   instances. Instance ids are pure functions of (scenario name,
   bindings, trial index) and the seed is derived from the id's MD5,
   so a run's identity never depends on file ordering, sibling
   scenarios, or how many combos expanded before it. *)

type template = {
  path : string;
  grid : (string list * string list list) list;
  body : Sexp.t;
}

type instance = {
  id : string;
  combo : string;
  trial : int;
  seed : int;
  spec : Spec.t;
}

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let ident_ok s =
  s <> ""
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
         | _ -> false)
       s

(* Combinatorial guard: a typo'd grid should fail loudly, not expand
   the matrix into the millions. *)
let max_combos = 10_000

let rec strip_grid = function
  | Sexp.Atom _ as a -> a
  | Sexp.List (Sexp.Atom "grid" :: _) ->
      bad "grid: only allowed at the top level of (scenario ...)"
  | Sexp.List items -> Sexp.List (List.map strip_grid items)

let atoms ctx = function
  | Sexp.Atom v -> v
  | Sexp.List _ as l ->
      bad "grid %s: values must be atoms, got %s" ctx (Sexp.to_string l)

(* One grid entry: a plain (NAME VALUE...) binds one name per value; a
   tuple ((NAME...) (VALUE...) ...) binds every name once per row. *)
let parse_entry = function
  | Sexp.List (Sexp.Atom name :: (_ :: _ as values)) ->
      ([ name ], List.map (fun v -> [ atoms name v ]) values)
  | Sexp.List (Sexp.List (_ :: _ as names) :: (_ :: _ as rows)) ->
      let names =
        List.map
          (function
            | Sexp.Atom n -> n
            | l -> bad "grid: tuple names must be atoms, got %s" (Sexp.to_string l))
          names
      in
      let ctx = String.concat " " names in
      let arity = List.length names in
      ( names,
        List.map
          (function
            | Sexp.List vs when List.length vs = arity -> List.map (atoms ctx) vs
            | row ->
                bad "grid (%s): expected a row of %d values, got %s" ctx arity
                  (Sexp.to_string row))
          rows )
  | f ->
      bad "grid: expected (NAME VALUE...) or ((NAME...) (VALUE...)...), got %s"
        (Sexp.to_string f)

let of_sexp_exn ?(path = "<string>") form =
  match form with
  | Sexp.List (Sexp.Atom "scenario" :: clauses) ->
      let grid = ref [] and seen = ref [] in
      let rest =
        List.filter
          (fun clause ->
            match clause with
            | Sexp.List (Sexp.Atom "grid" :: entries) ->
                List.iter
                  (fun entry ->
                    let names, rows = parse_entry entry in
                    List.iter
                      (fun name ->
                        if not (ident_ok name) then
                          bad "grid: bad parameter name %S" name;
                        if List.mem name !seen then
                          bad "grid: duplicate parameter %S" name;
                        seen := name :: !seen)
                      names;
                    grid := !grid @ [ (names, rows) ])
                  entries;
                false
            | _ -> true)
          clauses
      in
      let body = Sexp.List (Sexp.Atom "scenario" :: List.map strip_grid rest) in
      (* Every grid parameter must be referenced somewhere in the body;
         a dangling one is almost certainly a typo'd $var. *)
      let rec mentions var = function
        | Sexp.Atom a -> a = "$" ^ var
        | Sexp.List items -> List.exists (mentions var) items
      in
      List.iter
        (fun name ->
          if not (mentions name body) then
            bad "grid: parameter %S is never referenced (no $%s in the body)"
              name name)
        (List.rev !seen);
      let n_combos =
        List.fold_left (fun acc (_, rows) -> acc * List.length rows) 1 !grid
      in
      if n_combos > max_combos then
        bad "grid: %d combinations exceed the %d cap" n_combos max_combos;
      { path; grid = !grid; body }
  | f -> bad "expected (scenario ...), got %s" (Sexp.to_string f)

let of_sexp ?path form =
  match of_sexp_exn ?path form with
  | t -> Ok t
  | exception Bad m -> Error m

let load_file path =
  match Sexp.parse_file path with
  | Error e -> Error e
  | Ok [ form ] -> (
      match of_sexp ~path form with
      | Ok t -> Ok t
      | Error m -> Error (Printf.sprintf "%s: %s" path m))
  | Ok forms ->
      Error
        (Printf.sprintf "%s: expected exactly one (scenario ...) form, found %d"
           path (List.length forms))

let combos t =
  List.fold_left
    (fun acc (names, rows) ->
      List.concat_map
        (fun bindings ->
          List.map (fun row -> bindings @ List.combine names row) rows)
        acc)
    [ [] ] t.grid

let combo_id bindings =
  if bindings = [] then "-"
  else String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) bindings)

let rec substitute bindings = function
  | Sexp.Atom a when String.length a > 1 && a.[0] = '$' -> (
      match List.assoc_opt (String.sub a 1 (String.length a - 1)) bindings with
      | Some v -> Sexp.Atom v
      | None -> Sexp.Atom a (* left for Spec.of_sexp to flag as unbound *))
  | Sexp.Atom _ as a -> a
  | Sexp.List items -> Sexp.List (List.map (substitute bindings) items)

let instantiate t bindings =
  match Spec.of_sexp (substitute bindings t.body) with
  | Ok spec -> Ok spec
  | Error m ->
      Error
        (Printf.sprintf "%s [%s]: %s" t.path (combo_id bindings) m)

(* Seed from the run id's MD5: deterministic, uniform-ish, and
   independent of everything but the id itself. *)
let seed_of_id id =
  let d = Digest.string id in
  let b i = Char.code d.[i] in
  1 + ((b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor ((b 3 land 0x3f) lsl 24))
       mod 1_000_000_000)

let instance_id ~name ~combo ~trial = Printf.sprintf "%s/%s/t%d" name combo trial

let expand t ~trials =
  if trials < 1 then Error "expand: trials must be >= 1"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | bindings :: rest -> (
          match instantiate t bindings with
          | Error m -> Error m
          | Ok spec ->
              let combo = combo_id bindings in
              let acc =
                List.fold_left
                  (fun acc trial ->
                    let id = instance_id ~name:spec.Spec.name ~combo ~trial in
                    { id; combo; trial; seed = seed_of_id id; spec } :: acc)
                  acc
                  (List.init trials Fun.id)
              in
              go acc rest)
    in
    go [] (combos t)

(* Every *.scn under [dir], in name order, each expanded; instance ids
   must be unique across the directory. *)
let load_dir dir ~trials =
  match Sys.readdir dir with
  | exception Sys_error e -> Error e
  | names -> (
      let files =
        Array.to_list names
        |> List.filter (fun n -> Filename.check_suffix n ".scn")
        |> List.sort String.compare
        |> List.map (Filename.concat dir)
      in
      let seen = Hashtbl.create 4096 in
      let load path =
        match load_file path with
        | Error e -> raise (Bad e)
        | Ok tmpl -> (
            match expand tmpl ~trials with
            | Error e -> raise (Bad e)
            | Ok instances ->
                List.iter
                  (fun i ->
                    match Hashtbl.find_opt seen i.id with
                    | Some other ->
                        bad "duplicate instance id %s (from %s and %s)" i.id
                          other path
                    | None -> Hashtbl.add seen i.id path)
                  instances;
                (path, instances))
      in
      if files = [] then Error (Printf.sprintf "no *.scn files under %s" dir)
      else
        match List.map load files with
        | corpus -> Ok corpus
        | exception Bad e -> Error e)
