(* Benchmark harness: one entry per paper figure (see DESIGN.md's
   per-experiment index).

   Usage:  dune exec bench/main.exe --
             [--fast|--full] [--jobs N] [OPTION]... [ids...]
   ids: fig2 paper fig11 fig12 ablation micro faults topology scale
        scale-smoke matrix all (default: all);
   --help lists every id and option (parsed with Cmdliner).

   --jobs N fans independent trials/protocol runs across N domains;
   results are bit-identical to --jobs 1 (every trial owns its seeded
   RNG and par_map preserves ordering).

   paper, faults, topology and matrix are one scenario sweep
   (Exp_matrix) over scenarios/paper (Figs. 3-10, 14 and 18 with their
   Appendix B variants, and the Appendix A equilibrium runs),
   scenarios/faults, scenarios/topology and the --scenarios corpus;
   each writes BENCH_<id>.json,
   JOURNAL_<id>.jsonl and MANIFEST_<id>.json. e.g.
     dune exec bench/main.exe -- --fast --trials 3 --jobs 4 paper
   The sweeps (those four and scale) run under the
   lib/harness supervisor: --wall-budget/--stall-budget/--event-budget
   bound each run, --retries retries failed runs with escalating
   budgets, --resume skips runs already journaled in JOURNAL_<id>.jsonl,
   and --inject KIND:RUN_ID plants deterministic faults for chaos
   testing. Exit code: 0 = every run completed, 2 = degraded (some runs
   failed but the sweep finished), 1 = fatal.

   `dune runtest` runs scale-smoke (via @scale-smoke), and
   test/test_scenario.ml audits the faults and topology corpora there:
   every Proteus and BBR instance at one trial. *)

let experiments : (string * (unit -> unit)) list =
  [
    ("fig2", Exp_fig2.run);
    ( "paper",
      fun () ->
        Exp_matrix.sweep ~id:"paper"
          ~title:
            "Paper Figs. 3-10, 14 and 18 with Appendix B Figs. 15-17 and \
             19-22, and the Appendix A equilibrium runs (scenario files)"
          "scenarios/paper" );
    ("fig11", Exp_fig11.run);
    ("fig12", Exp_fig12.run);
    ("ablation", Exp_ablation.run);
    ("micro", Exp_micro.run);
    ( "faults",
      fun () ->
        Exp_matrix.sweep ~id:"faults"
          ~title:
            "Fault injection: outages, bandwidth steps, bursty loss (auditor \
             on)"
          "scenarios/faults" );
    ( "topology",
      fun () ->
        Exp_matrix.sweep ~id:"topology"
          ~title:"Multi-hop topologies: parking lot and reverse-path congestion"
          "scenarios/topology" );
    ("scale", Exp_scale.run);
    ("scale-smoke", Exp_scale.smoke);
    ("matrix", Exp_matrix.run);
  ]

open Cmdliner

(* Converters carry the validation ranges: a value that does not parse
   or falls outside its range is a command-line error (exit 1). *)
let checked of_string pp ~what ok =
  Arg.conv
    ( (fun s ->
        match of_string s with
        | Some v when ok v -> Ok v
        | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" what s))),
      pp )

let int_in = checked int_of_string_opt Format.pp_print_int
let non_negative = int_in ~what:"a non-negative integer" (fun n -> n >= 0)
let positive = int_in ~what:"a positive integer" (fun n -> n > 0)

let seconds =
  checked float_of_string_opt Format.pp_print_float
    ~what:"a positive number of seconds" (fun x -> x > 0.0)

let parse_inject s =
  match String.index_opt s ':' with
  | None -> None
  | Some i -> (
      let rid = String.sub s (i + 1) (String.length s - i - 1) in
      match Proteus_harness.Sweep.inject_of_string (String.sub s 0 i) with
      | Some inj when rid <> "" -> Some (rid, inj)
      | _ -> None)

let injection =
  checked parse_inject
    (fun ppf (rid, _) -> Format.pp_print_string ppf rid)
    ~what:"KIND:RUN_ID with KIND one of crash|stall|audit"
    (fun _ -> true)

let scale =
  Arg.(
    value
    & vflag_all [ Exp_common.Default ]
        [
          (Exp_common.Fast, info [ "fast" ] ~doc:"Reduced scale.");
          (Exp_common.Full, info [ "full" ] ~doc:"Full scale.");
        ])

let jobs =
  Arg.(
    value & opt non_negative 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Run independent trials/protocols on $(docv) domains (0 picks the \
           recommended domain count); results are bit-identical to 1.")

(* An option whose value lands in one of the experiments' settings. *)
let setting r arg = Term.(const (fun v -> r := v) $ arg)

let opt_setting r arg_conv default name ~docv doc =
  setting r Arg.(value & opt arg_conv default & info [ name ] ~docv ~doc)

let settings =
  let open Exp_common in
  [
    opt_setting trials_override (Arg.some positive) None "trials" ~docv:"N"
      "Override the scale-derived trial count.";
    opt_setting shards positive !shards "shards" ~docv:"N"
      "Shard count for intra-trial sharded experiments (scale; \
       byte-identical for any $(docv)).";
    opt_setting retries non_negative 0 "retries" ~docv:"N"
      "Retry failed sweep runs up to $(docv) times with escalating \
       wall/stall budgets.";
    setting resume
      Arg.(
        value & flag
        & info [ "resume" ]
            ~doc:"Skip sweep runs already journaled in JOURNAL_<id>.jsonl.");
    opt_setting wall_budget (Arg.some seconds) None "wall-budget" ~docv:"S"
      "Per-run wall-clock budget.";
    opt_setting stall_budget (Arg.some seconds) None "stall-budget" ~docv:"S"
      "Poison a run when sim-time stops advancing for $(docv) wall seconds \
       (livelock detector).";
    opt_setting event_budget (Arg.some positive) None "event-budget"
      ~docv:"N" "Per-sim fired-event budget.";
    setting injections
      Arg.(
        value & opt_all injection []
        & info [ "inject" ] ~docv:"KIND:RUN_ID"
            ~doc:
              "Inject a fault into a sweep run (KIND: crash | stall | audit; \
               repeatable).");
    opt_setting Exp_matrix.dir Arg.string !Exp_matrix.dir "scenarios"
      ~docv:"DIR" "Scenario corpus for the matrix experiment.";
  ]
  |> List.fold_left (fun acc t -> Term.(const (fun () () -> ()) $ acc $ t))
       (Term.const ())

let short_help = Arg.(value & flag & info [ "h" ] ~doc:"Same as $(b,--help).")

let ids =
  let names = List.map fst experiments @ [ "all" ] in
  Arg.(
    value
    & pos_all (enum (List.map (fun n -> (n, n)) names)) []
    & info [] ~docv:"ID"
        ~doc:
          (Printf.sprintf
             "Experiments to run: $(docv) is one of %s; all (the default) \
              runs every experiment except scale-smoke and the \
              matrix. paper holds the paper's figures, Appendix B included."
             (String.concat ", " (List.map fst experiments))))

let run scale_flags jobs ids =
  Exp_common.scale := List.nth scale_flags (List.length scale_flags - 1);
  Exp_common.set_jobs
    (if jobs = 0 then Proteus_parallel.Pool.default_jobs () else jobs);
  let ids = if ids = [] then [ "all" ] else ids in
  let ids =
    List.concat_map
      (fun id ->
        match id with
        (* "all" skips scale-smoke (a subset of scale, kept for the
           @scale-smoke alias) and the scenario matrix (thousands of
           runs; its CI job invokes it explicitly). *)
        | "all" ->
            List.filter_map
              (fun (id, _) ->
                if id = "scale-smoke" || id = "matrix" then None else Some id)
              experiments
        | _ -> [ id ])
      ids
  in
  let t_start = Unix.gettimeofday () in
  (* An exception escaping an experiment means the harness itself broke
     (sweep-run failures are absorbed by the supervisor and reported
     via the degraded path below): fatal, exit 1. Without the handler
     OCaml's uncaught-exception exit code would be 2 and collide with
     "degraded". *)
  match
    List.iter
      (fun id ->
        let t0 = Unix.gettimeofday () in
        List.assoc id experiments ();
        Printf.printf "[%s done in %.1f s]\n%!" id (Unix.gettimeofday () -. t0))
      ids
  with
  | exception e ->
      let bt = Printexc.get_backtrace () in
      Printf.eprintf "bench: fatal: %s\n%s%!" (Printexc.to_string e) bt;
      Exp_common.shutdown_pool ();
      1
  | () ->
      Printf.printf "\nTotal: %.1f s (scale: %s, jobs: %d)\n"
        (Unix.gettimeofday () -. t_start)
        (Exp_common.scale_name ()) !Exp_common.jobs;
      Exp_common.shutdown_pool ();
      List.iter
        (fun (id, (s : Proteus_harness.Sweep.summary)) ->
          Printf.eprintf
            "bench: degraded: %s finished with %d failed run(s) (%d \
             quarantined, %d completed, %d resumed)\n"
            id s.failed s.quarantined s.completed s.resumed)
        (List.rev !Exp_common.degraded);
      if !Exp_common.degraded = [] then 0 else 2

let main help scale_flags jobs () ids =
  if help then `Help (`Auto, None) else `Ok (run scale_flags jobs ids)

(* Cmdliner's own error codes (124 command line, 125 internal) map to
   1, so the documented codes are the only ones. *)
let exits =
  Cmd.Exit.
    [
      info 0 ~doc:"every run completed.";
      info 1 ~doc:"fatal error, including a command-line error.";
      info 2 ~doc:"degraded: some sweep runs failed but the sweep finished.";
    ]

let cmd =
  Cmd.v
    (Cmd.info "main.exe" ~exits ~doc:"PCC Proteus reproduction benchmarks")
    Term.(ret (const main $ short_help $ scale $ jobs $ settings $ ids))

let () =
  match Cmd.eval' cmd with 0 -> exit 0 | 2 -> exit 2 | _ -> exit 1
