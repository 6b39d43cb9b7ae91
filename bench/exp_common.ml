(* Shared machinery for the paper-reproduction experiments: scale
   knobs, manifests, supervised fan-out, standard single-flow and
   two-flow runs, and output formatting. *)

module Net = Proteus_net
module Stats = Proteus_stats
module Pool = Proteus_parallel.Pool
module D = Stats.Descriptive

(* ---------- global scaling ---------- *)

type scale = Fast | Default | Full

let scale = ref Default

let pick ~fast ~default ~full =
  match !scale with Fast -> fast | Default -> default | Full -> full

(* `--trials N` overrides the scale-derived trial count. *)
let trials_override : int option ref = ref None

let trials () =
  match !trials_override with
  | Some n -> n
  | None -> pick ~fast:1 ~default:3 ~full:10

let single_duration () = pick ~fast:25.0 ~default:60.0 ~full:100.0
let pair_duration () = pick ~fast:40.0 ~default:80.0 ~full:140.0

(* `--shards N`: shard count for the intra-trial sharded experiments
   (exp_scale). Results are byte-identical for any value (see
   lib/net/shard.mli); the knob only trades wall-clock. *)
let shards = ref 4

let scale_name () =
  match !scale with Fast -> "fast" | Default -> "default" | Full -> "full"

(* ---------- manifests ---------- *)

(* One manifest next to each experiment's output, recording what
   produced it. Execution details (`--jobs`) are deliberately excluded
   so CI's determinism gate can byte-compare manifests across fan-out
   widths; the scale knob changes the numbers, so it is included. *)
let emit_manifest ?seed ?(params = []) ?metrics ?registry id =
  let path = "MANIFEST_" ^ id ^ ".json" in
  Proteus_obs.Manifest.write ~path ~run:id ?seed ~scenario:id
    ~params:(("scale", scale_name ()) :: params)
    ?metrics ?registry ();
  Printf.printf "(wrote %s)\n" path

(* ---------- resilient supervision ---------- *)

module Harness = Proteus_harness

(* `--resume` / `--retries` / `--wall-budget` / `--stall-budget` /
   `--event-budget` / `--inject KIND:RUN_ID`: the sweep experiments
   (faults, topology, matrix, scale) run every simulation under the
   lib/harness supervisor. With no knobs set the supervisor is inert —
   byte-identical outputs — but a crashing, stalling or over-budget run
   degrades its own row instead of killing the whole sweep. *)

let resume = ref false
let retries = ref 0
let wall_budget : float option ref = ref None
let stall_budget : float option ref = ref None
let event_budget : int option ref = ref None
let injections : (string * Harness.Sweep.inject) list ref = ref []

let supervision_budget () =
  {
    Harness.Supervisor.max_events = !event_budget;
    max_sim_time = None;
    wall_s = !wall_budget;
    stall_s = !stall_budget;
  }

let sweep_config ~journal ~params =
  {
    Harness.Sweep.default with
    budget = supervision_budget ();
    retries = !retries;
    journal = Some journal;
    resume = !resume;
    params = Harness.Journal.params_hash params;
    injections = !injections;
  }

(* Arm the enclosing supervised run's budgets on a runner's sim. A
   no-op outside a supervised task, so experiments arm unconditionally. *)
let arm = Harness.Supervisor.arm_runner

(* Experiments report their failed runs here; main.exe turns a
   non-empty ledger into a one-line stderr summary and the degraded
   exit code (2). *)
let degraded : (string * Harness.Sweep.summary) list ref = ref []

let note_failures id (s : Harness.Sweep.summary) =
  if s.failed > 0 then degraded := (id, s) :: !degraded

(* The explicit failed-runs section every sweep's BENCH json carries:
   an empty array on a clean sweep (so clean outputs are stable), one
   entry per degraded run otherwise. *)
let emit_failed_runs oc (failures : Harness.Sweep.failure list) =
  match failures with
  | [] -> output_string oc "  \"failed_runs\": [],\n"
  | fs ->
      let esc = Proteus_obs.Export.json_escape in
      output_string oc "  \"failed_runs\": [\n";
      List.iteri
        (fun i (f : Harness.Sweep.failure) ->
          Printf.fprintf oc
            "    {\"run\": \"%s\", \"outcome\": \"%s\", \"detail\": \"%s\", \
             \"attempts\": %d}%s\n"
            (esc f.f_run) (esc f.f_outcome) (esc f.f_detail) f.f_attempts
            (if i = List.length fs - 1 then "" else ","))
        fs;
      output_string oc "  ],\n"

(* Failures list + summary from a sweep's rows; every experiment
   reports through this so the ledger and manifests stay consistent. *)
let sweep_failures rows =
  List.filter_map (fun (r : _ Harness.Sweep.row) -> r.r_failure) rows

let outcome_params (s : Harness.Sweep.summary) =
  [
    ("runs_completed", string_of_int s.completed);
    ("runs_failed", string_of_int s.failed);
    ("runs_quarantined", string_of_int s.quarantined);
    ("runs_resumed", string_of_int s.resumed);
  ]

(* ---------- multicore fan-out ---------- *)

(* Worker pool shared by every experiment; sized by `--jobs N`
   (default 1 = fully sequential). Trials and protocol sweeps are pure
   functions of their seeds and [par_map] preserves input order, so the
   parallel results are bit-identical to the sequential ones. *)

let jobs = ref 1
let pool : Pool.t option ref = ref None

let set_jobs n =
  let n = max 1 n in
  jobs := n;
  (match !pool with Some p -> Pool.shutdown p | None -> ());
  pool := (if n > 1 then Some (Pool.create ~jobs:n) else None)

let shutdown_pool () =
  (match !pool with Some p -> Pool.shutdown p | None -> ());
  pool := None

let par_map f xs =
  match !pool with Some p -> Pool.map p f xs | None -> List.map f xs

(* Supervised fan-out: Sweep.map over the shared pool. Each task runs
   under the supervisor (crash isolation, budgets, retries) and
   completions are journaled for --resume. *)
let sup_map cfg ~run_id ~seed_of ~encode ~decode f keys =
  Harness.Sweep.map cfg
    ~pool_map:(fun g xs -> par_map g xs)
    ~run_id ~seed_of ~encode ~decode f keys

(* ---------- standard links ---------- *)

let emulab_cfg ?noise () =
  Net.Link.config ?noise ~bandwidth_mbps:50.0 ~rtt_ms:30.0
    ~buffer_bytes:375_000 ()

(* ---------- single-flow run ---------- *)

(* Throughput of one flow alone, over the last two thirds of the run. *)
let single_tput ?(seed = 1) ?noise factory =
  let duration = single_duration () in
  let r = Net.Runner.create ~seed (emulab_cfg ?noise ()) in
  let f = Net.Runner.add_flow r ~label:"single" ~factory in
  Net.Runner.run r ~until:duration;
  Net.Flow_stats.throughput_mbps (Net.Runner.stats f) ~t0:(duration /. 3.0)
    ~t1:duration

(* ---------- two-flow (scavenger vs primary) run ---------- *)

type pair_summary = {
  ratio : float;  (* primary with the scavenger / primary alone *)
  scav_tput : float;
}

let pair_run ?(seed = 1) ~primary ~scavenger () =
  let duration = pair_duration () in
  let scav_start = duration /. 6.0 in
  let t0 = duration /. 3.0 in
  let cfg = emulab_cfg () in
  let r1 = Net.Runner.create ~seed cfg in
  let p1 = Net.Runner.add_flow r1 ~label:"primary" ~factory:(primary ()) in
  Net.Runner.run r1 ~until:duration;
  let alone_tput =
    Net.Flow_stats.throughput_mbps (Net.Runner.stats p1) ~t0 ~t1:duration
  in
  let r2 = Net.Runner.create ~seed:(seed + 1000) cfg in
  let p2 = Net.Runner.add_flow r2 ~label:"primary" ~factory:(primary ()) in
  let s2 =
    Net.Runner.add_flow r2 ~start:scav_start ~label:"scavenger"
      ~factory:(scavenger ())
  in
  Net.Runner.run r2 ~until:duration;
  let with_tput =
    Net.Flow_stats.throughput_mbps (Net.Runner.stats p2) ~t0 ~t1:duration
  in
  {
    ratio = (if alone_tput > 0.0 then with_tput /. alone_tput else 0.0);
    scav_tput =
      Net.Flow_stats.throughput_mbps (Net.Runner.stats s2) ~t0 ~t1:duration;
  }

(* ---------- output ---------- *)

let header title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n"

let subheader s = Printf.printf "\n--- %s ---\n" s

let print_cdf label values =
  let pct p = D.percentile values ~p in
  Printf.printf "%-24s p10=%7.3f p25=%7.3f p50=%7.3f p75=%7.3f p90=%7.3f\n"
    label (pct 10.0) (pct 25.0) (pct 50.0) (pct 75.0) (pct 90.0)

(* ---------- standard experiment shell ---------- *)

(* Banner, body, manifest — the frame every [Exp_*.run] shares. The
   body returns the manifest's extra params so values computed during
   the run (scenario counts, effective durations) can be recorded
   without precomputing them; most experiments return []. *)
let run_experiment ?seed ~id ~title body =
  header title;
  let params = body () in
  emit_manifest ?seed ~params id
