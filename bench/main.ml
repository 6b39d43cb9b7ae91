(* Benchmark harness: one entry per paper figure (see DESIGN.md's
   per-experiment index).

   Usage:  dune exec bench/main.exe --
             [--fast|--full] [--jobs N] [ids...]
   ids: fig2 fig3 fig4 fig5 fig6 fig8 fig9 fig11 fig12 fig14
        appendix theory ablation micro faults topology all (default: all)

   --jobs N fans independent trials/protocol runs across N domains;
   results are bit-identical to --jobs 1 (every trial owns its seeded
   RNG and par_map preserves ordering).

   --trace FILE / --metrics FILE export the observability bus and a
   metrics snapshot from experiments that support per-run tracing
   (currently faults-smoke); tracing never changes results.

   The sweep experiments (faults, topology, scale) run under the
   lib/harness supervisor: --wall-budget/--stall-budget/--event-budget
   bound each run, --retries retries failed runs with escalating
   budgets, --resume skips runs already journaled in JOURNAL_<id>.jsonl,
   and --inject KIND:RUN_ID plants deterministic faults for chaos
   testing. Exit code: 0 = every run completed, 2 = degraded (some runs
   failed but the sweep finished), 1 = fatal. *)

let experiments : (string * (unit -> unit)) list =
  [
    ("fig2", Exp_fig2.run);
    ("fig3", fun () -> Exp_fig3.run ());
    ("fig4", fun () -> Exp_fig4.run ());
    ("fig5", fun () -> Exp_fig5.run ());
    ("fig6", fun () -> Exp_fig6.run ());
    ("fig8", Exp_fig8.run);
    ("fig9", fun () -> Exp_fig9.run ());
    ("fig11", Exp_fig11.run);
    ("fig12", Exp_fig12.run);
    ("fig14", Exp_fig14.run);
    ("figB-buffers", fun () -> Exp_fig3.run ~appendix:true ());
    ("figB-loss", fun () -> Exp_fig4.run ~appendix:true ());
    ("figB-fairness", fun () -> Exp_fig5.run ~appendix:true ());
    ("figB-yield", fun () -> Exp_fig6.run ~appendix:true ());
    ("figB-wifi", fun () -> Exp_fig9.run ~appendix:true ());
    ("theory", Exp_theory.run);
    ("ablation", Exp_ablation.run);
    ("micro", Exp_micro.run);
    ("faults", Exp_faults.run);
    ("faults-smoke", Exp_faults.smoke);
    ("topology", Exp_topology.run);
    ("topology-smoke", Exp_topology.smoke);
    ("scale", Exp_scale.run);
    ("scale-smoke", Exp_scale.smoke);
    ("matrix", Exp_matrix.run);
  ]

let appendix_ids =
  [ "figB-buffers"; "figB-loss"; "figB-fairness"; "figB-yield"; "figB-wifi" ]

let usage () =
  Printf.printf "usage: main.exe [--fast|--full] [--jobs N] [ids...]\nids:\n";
  List.iter (fun (id, _) -> Printf.printf "  %s\n" id) experiments;
  Printf.printf "  appendix (= %s)\n  all (default)\n"
    (String.concat " " appendix_ids);
  Printf.printf
    "options:\n\
    \  --jobs N       run independent trials/protocols on N domains\n\
    \                 (N=0 picks the recommended domain count)\n\
    \  --trace FILE   export the trace bus (JSONL, or CSV if FILE ends\n\
    \                 in .csv) from trace-capable experiments\n\
    \  --metrics FILE export a metrics-registry snapshot (JSON)\n\
    \  --trials N     override the scale-derived trial count (1..64)\n\
    \  --shards N     shard count for intra-trial sharded experiments\n\
    \                 (scale; byte-identical for any N, default 4)\n\
    \  --retries N    retry failed sweep runs up to N times with\n\
    \                 escalating wall/stall budgets (default 0)\n\
    \  --resume       skip sweep runs already journaled in\n\
    \                 JOURNAL_<id>.jsonl (after a crash or kill)\n\
    \  --wall-budget S    per-run wall-clock budget (seconds)\n\
    \  --stall-budget S   poison a run when sim-time stops advancing\n\
    \                     for S wall seconds (livelock detector)\n\
    \  --event-budget N   per-sim fired-event budget\n\
    \  --inject KIND:RUN_ID  inject a fault into a sweep run\n\
    \                 (KIND: crash | stall | audit; repeatable)\n\
    \  --scenarios DIR  scenario corpus for the matrix experiment\n\
    \                 (default: scenarios)\n"

let parse_jobs s =
  match int_of_string_opt s with
  | Some 0 -> Proteus_parallel.Pool.default_jobs ()
  | Some n when n > 0 -> n
  | _ ->
      Printf.eprintf "--jobs expects a non-negative integer, got %S\n" s;
      exit 1

(* The sweeps' [Rng.split_at] key spaces reserve 64 slots per trial
   index, so an override past that would alias seeds across tasks. *)
let parse_trials s =
  match int_of_string_opt s with
  | Some n when n >= 1 && n <= 64 -> n
  | _ ->
      Printf.eprintf "--trials expects an integer in 1..64, got %S\n" s;
      exit 1

let parse_shards s =
  match int_of_string_opt s with
  | Some n when n >= 1 -> n
  | _ ->
      Printf.eprintf "--shards expects a positive integer, got %S\n" s;
      exit 1

let parse_retries s =
  match int_of_string_opt s with
  | Some n when n >= 0 -> n
  | _ ->
      Printf.eprintf "--retries expects a non-negative integer, got %S\n" s;
      exit 1

let parse_budget_s flag s =
  match float_of_string_opt s with
  | Some x when x > 0.0 -> x
  | _ ->
      Printf.eprintf "%s expects a positive number of seconds, got %S\n" flag s;
      exit 1

let parse_event_budget s =
  match int_of_string_opt s with
  | Some n when n > 0 -> n
  | _ ->
      Printf.eprintf "--event-budget expects a positive integer, got %S\n" s;
      exit 1

let parse_inject s =
  let fail () =
    Printf.eprintf
      "--inject expects KIND:RUN_ID with KIND one of crash|stall|audit, got \
       %S\n"
      s;
    exit 1
  in
  match String.index_opt s ':' with
  | None -> fail ()
  | Some i -> (
      let kind = String.sub s 0 i in
      let rid = String.sub s (i + 1) (String.length s - i - 1) in
      match Proteus_harness.Sweep.inject_of_string kind with
      | Some inj when rid <> "" -> (rid, inj)
      | _ -> fail ())

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--fast" :: rest ->
        Exp_common.scale := Exp_common.Fast;
        parse acc rest
    | "--full" :: rest ->
        Exp_common.scale := Exp_common.Full;
        parse acc rest
    | "--jobs" :: n :: rest ->
        Exp_common.set_jobs (parse_jobs n);
        parse acc rest
    | [ "--jobs" ] ->
        Printf.eprintf "--jobs expects an argument\n";
        exit 1
    | "--trace" :: f :: rest ->
        Exp_common.trace_file := Some f;
        parse acc rest
    | "--metrics" :: f :: rest ->
        Exp_common.metrics_file := Some f;
        parse acc rest
    | "--trials" :: n :: rest ->
        Exp_common.trials_override := Some (parse_trials n);
        parse acc rest
    | "--shards" :: n :: rest ->
        Exp_common.shards := parse_shards n;
        parse acc rest
    | "--resume" :: rest ->
        Exp_common.resume := true;
        parse acc rest
    | "--retries" :: n :: rest ->
        Exp_common.retries := parse_retries n;
        parse acc rest
    | "--wall-budget" :: s :: rest ->
        Exp_common.wall_budget := Some (parse_budget_s "--wall-budget" s);
        parse acc rest
    | "--stall-budget" :: s :: rest ->
        Exp_common.stall_budget := Some (parse_budget_s "--stall-budget" s);
        parse acc rest
    | "--event-budget" :: n :: rest ->
        Exp_common.event_budget := Some (parse_event_budget n);
        parse acc rest
    | "--inject" :: s :: rest ->
        Exp_common.injections := !Exp_common.injections @ [ parse_inject s ];
        parse acc rest
    | "--scenarios" :: d :: rest ->
        Exp_matrix.dir := d;
        parse acc rest
    | [ ("--trace" | "--metrics" | "--trials" | "--shards"
        | "--retries" | "--wall-budget" | "--stall-budget" | "--event-budget"
        | "--inject" | "--scenarios") ] ->
        Printf.eprintf
          "--trace/--metrics/--trials/--shards/--retries/\
           --wall-budget/--stall-budget/--event-budget/--inject expect an \
           argument\n";
        exit 1
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | a :: rest when String.length a > 7 && String.sub a 0 7 = "--jobs=" ->
        Exp_common.set_jobs (parse_jobs (String.sub a 7 (String.length a - 7)));
        parse acc rest
    | a :: rest when String.length a > 8 && String.sub a 0 8 = "--trace=" ->
        Exp_common.trace_file := Some (String.sub a 8 (String.length a - 8));
        parse acc rest
    | a :: rest when String.length a > 10 && String.sub a 0 10 = "--metrics="
      ->
        Exp_common.metrics_file :=
          Some (String.sub a 10 (String.length a - 10));
        parse acc rest
    | a :: rest when String.length a > 9 && String.sub a 0 9 = "--trials=" ->
        Exp_common.trials_override :=
          Some (parse_trials (String.sub a 9 (String.length a - 9)));
        parse acc rest
    | a :: rest when String.length a > 9 && String.sub a 0 9 = "--shards=" ->
        Exp_common.shards := parse_shards (String.sub a 9 (String.length a - 9));
        parse acc rest
    | id :: rest -> parse (id :: acc) rest
  in
  let ids = parse [] args in
  let ids = if ids = [] then [ "all" ] else ids in
  let ids =
    List.concat_map
      (fun id ->
        match id with
        (* "all" skips the smoke entries (subsets of the full sweeps,
           kept for the @*-smoke aliases) and the scenario matrix
           (thousands of runs; its CI job invokes it explicitly). *)
        | "all" ->
            List.filter_map
              (fun (id, _) ->
                if
                  id = "faults-smoke" || id = "topology-smoke"
                  || id = "scale-smoke" || id = "matrix"
                then None
                else Some id)
              experiments
        | "appendix" -> appendix_ids
        | _ -> [ id ])
      ids
  in
  let t_start = Unix.gettimeofday () in
  (* An exception escaping an experiment means the harness itself broke
     (sweep-run failures are absorbed by the supervisor and reported
     via the degraded path below): fatal, exit 1. Without the handler
     OCaml's uncaught-exception exit code would be 2 and collide with
     "degraded". *)
  (try
     List.iter
       (fun id ->
         match List.assoc_opt id experiments with
         | Some f ->
             let t0 = Unix.gettimeofday () in
             f ();
             Printf.printf "[%s done in %.1f s]\n%!" id
               (Unix.gettimeofday () -. t0)
         | None ->
             Printf.eprintf "unknown experiment %S\n" id;
             usage ();
             exit 1)
       ids
   with e ->
     let bt = Printexc.get_backtrace () in
     Printf.eprintf "bench: fatal: %s\n%s%!" (Printexc.to_string e) bt;
     Exp_common.shutdown_pool ();
     exit 1);
  Printf.printf "\nTotal: %.1f s (scale: %s, jobs: %d)\n"
    (Unix.gettimeofday () -. t_start)
    (match !Exp_common.scale with
    | Exp_common.Fast -> "fast"
    | Exp_common.Default -> "default"
    | Exp_common.Full -> "full")
    !Exp_common.jobs;
  Exp_common.shutdown_pool ();
  match !Exp_common.degraded with
  | [] -> ()
  | ledger ->
      List.iter
        (fun (id, (s : Proteus_harness.Sweep.summary)) ->
          Printf.eprintf
            "bench: degraded: %s finished with %d failed run(s) (%d \
             quarantined, %d completed, %d resumed)\n"
            id s.failed s.quarantined s.completed s.resumed)
        (List.rev ledger);
      exit 2
