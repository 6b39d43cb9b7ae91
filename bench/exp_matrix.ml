(* The scenario sweep: every *.scn file under a corpus directory
   expands (grid x trials) into concrete seeded instances, fans out
   through the supervised sweep over the Domain pool, and the per-trial
   metric values aggregate into mean / sd / 95% CI cells in
   BENCH_<id>.json. Four bench ids run it: matrix (the --scenarios
   corpus), paper (scenarios/paper), faults (scenarios/faults) and
   topology (scenarios/topology).
   bench/check_matrix.exe gates a candidate against a committed
   baseline with Welch-style tests instead of byte equality (the cells
   are sample statistics; see lib/scenario/gate).

   Determinism contract: instance ids are pure functions of (scenario
   name, grid bindings, trial index) and seeds derive from the id's
   MD5, so the output is byte-identical across --jobs widths and
   unaffected by adding or removing sibling scenario files. *)

module Scn = Proteus_scenario
module Sweep = Proteus_harness.Sweep

(* `--scenarios DIR` (default "scenarios"): the matrix corpus. *)
let dir = ref "scenarios"

(* Corpus digest: MD5 over (basename, content-MD5) pairs in sorted
   order. Guards the journal against resuming into an edited corpus
   and is recorded in the BENCH config for provenance. *)
let corpus_digest files =
  let buf = Buffer.create 256 in
  List.iter
    (fun f ->
      Buffer.add_string buf (Filename.basename f);
      Buffer.add_char buf '\000';
      Buffer.add_string buf (Digest.to_hex (Digest.file f));
      Buffer.add_char buf '\n')
    files;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ---------- per-run task ---------- *)

(* %h floats round-trip byte-exactly through the journal: a resumed
   run feeds the aggregation the same bytes a fresh one would. *)
let encode_metrics ms =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v) ms)

let decode_metrics s =
  if s = "" then []
  else
    List.map
      (fun kv ->
        match String.rindex_opt kv '=' with
        | None -> failwith ("sweep: bad journal payload " ^ kv)
        | Some i ->
            ( String.sub kv 0 i,
              float_of_string
                (String.sub kv (i + 1) (String.length kv - i - 1)) ))
      (String.split_on_char ',' s)

let run_instance (i : Scn.Grid.instance) =
  Scn.Build.run_metrics ~arm:Exp_common.arm ~seed:i.seed i.spec

(* ---------- aggregation ---------- *)

type cell = {
  cell_id : string;  (* instance id minus the /tN suffix *)
  metric : string;
  mean : float;
  sd : float;
  ci95 : float;
  trials : int;
}

let base_id id =
  match String.rindex_opt id '/' with
  | Some i -> String.sub id 0 i
  | None -> id

let mean_sd_ci xs =
  let n = Array.length xs in
  if n = 0 then (0.0, 0.0, 0.0)
  else
    let mean = Proteus_stats.Descriptive.mean xs in
    if n < 2 then (mean, 0.0, 0.0)
    else begin
      let nf = float_of_int n in
      let sq = ref 0.0 in
      Array.iter
        (fun x ->
          let d = x -. mean in
          sq := !sq +. (d *. d))
        xs;
      let sd = sqrt (!sq /. (nf -. 1.0)) in
      (mean, sd, 1.96 *. sd /. sqrt nf)
    end

(* Rows arrive in task order: combo-major, trial-ascending — so the
   trials of one cell are contiguous. Group on the base id, then fold
   each metric column into a cell. Failed trials contribute nothing
   (their absence shows in the cell's [trials] count; a cell whose
   every trial failed is absent entirely, which the gate reports as a
   missing row against the baseline). *)
let aggregate tasks rows =
  let groups = ref [] in
  (* (base_id, values list rev) *)
  List.iter2
    (fun (i : Scn.Grid.instance) (r : _ Sweep.row) ->
      let b = base_id i.id in
      match !groups with
      | (b', vs) :: rest when b' = b -> groups := (b', r.r_value :: vs) :: rest
      | _ -> groups := (b, [ r.Sweep.r_value ]) :: !groups)
    tasks rows;
  List.concat_map
    (fun (b, vs_rev) ->
      let completed = List.filter_map Fun.id (List.rev vs_rev) in
      match completed with
      | [] -> []
      | first :: _ ->
          List.map
            (fun (metric, _) ->
              let xs =
                Array.of_list
                  (List.filter_map (List.assoc_opt metric) completed)
              in
              let mean, sd, ci95 = mean_sd_ci xs in
              { cell_id = b; metric; mean; sd; ci95; trials = Array.length xs })
            first)
    (List.rev !groups)

(* ---------- output ---------- *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.6g" v else "0"

let emit_json ~id ~trials ~n_files ~n_instances ~digest cells failures =
  let oc = open_out ("BENCH_" ^ id ^ ".json") in
  output_string oc "{\n  \"schema\": \"pcc-proteus-bench-matrix/1\",\n";
  Printf.fprintf oc "  \"code_version\": \"%s\",\n"
    (Proteus_obs.Manifest.code_version ());
  Printf.fprintf oc
    "  \"config\": {\"scale\": \"%s\", \"trials\": %d, \"scenarios\": %d, \
     \"instances\": %d, \"corpus_digest\": \"%s\"},\n"
    (Exp_common.scale_name ()) trials n_files n_instances digest;
  Exp_common.emit_failed_runs oc failures;
  output_string oc "  \"results\": [\n";
  let n = List.length cells in
  List.iteri
    (fun i c ->
      Printf.fprintf oc
        "    {\"id\": \"%s\", \"metric\": \"%s\", \"mean\": %s, \"sd\": %s, \
         \"ci95\": %s, \"trials\": %d}%s\n"
        (Proteus_obs.Export.json_escape c.cell_id)
        (Proteus_obs.Export.json_escape c.metric)
        (json_num c.mean) (json_num c.sd) (json_num c.ci95) c.trials
        (if i = n - 1 then "" else ","))
    cells;
  output_string oc "  ]\n}\n";
  close_out oc

(* ---------- entry point ---------- *)

let sweep ~id ~title corpus_dir =
  Exp_common.run_experiment ~id ~title @@ fun () ->
  let trials = Exp_common.trials () in
  let corpus =
    match Scn.Grid.load_dir corpus_dir ~trials with
    | Ok c -> c
    | Error e -> failwith (Printf.sprintf "%s: %s" id e)
  in
  let files = List.map fst corpus in
  let digest = corpus_digest files in
  let tasks = List.concat_map snd corpus in
  let n_instances = List.length tasks in
  Printf.printf "corpus: %d scenario files -> %d instances (%d trials each)\n"
    (List.length files) n_instances trials;
  List.iter
    (fun (path, instances) ->
      Printf.printf "  %-40s %4d runs\n" (Filename.basename path)
        (List.length instances))
    corpus;
  let cfg =
    Exp_common.sweep_config
      ~journal:("JOURNAL_" ^ id ^ ".jsonl")
      ~params:[ id; Exp_common.scale_name (); string_of_int trials; digest ]
  in
  let rows =
    Exp_common.sup_map cfg
      ~run_id:(fun (i : Scn.Grid.instance) -> i.id)
      ~seed_of:(fun (i : Scn.Grid.instance) -> i.seed)
      ~encode:encode_metrics ~decode:decode_metrics run_instance tasks
  in
  let failures = Exp_common.sweep_failures rows in
  let summary = Sweep.summarize ~retries:!Exp_common.retries rows in
  Exp_common.note_failures id summary;
  let cells = aggregate tasks rows in
  emit_json ~id ~trials ~n_files:(List.length files) ~n_instances ~digest
    cells failures;
  Printf.printf
    "\n%d runs (%d completed, %d failed, %d resumed) -> %d result cells\n"
    n_instances summary.completed summary.failed summary.resumed
    (List.length cells);
  Printf.printf "(wrote BENCH_%s.json)\n" id;
  ("scenario_files", string_of_int (List.length files))
  :: ("instances", string_of_int n_instances)
  :: ("corpus_digest", digest)
  :: Exp_common.outcome_params summary

let run () =
  sweep ~id:"matrix" ~title:"Scenario evaluation matrix (declarative corpus sweep)"
    !dir
