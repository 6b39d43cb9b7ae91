(* Tests for the deadline-driven Proteus-H policy and for the extra
   utility variants (proportional strawman), plus the MI observer. *)

open Proteus
module Net = Proteus_net

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ---------- Deadline policy ---------- *)

let mk ?(safety = 1.2) ?(total = 12_500_000) ?(deadline = 100.0) () =
  let threshold = ref 0.0 in
  let p =
    Deadline_policy.create ~safety ~total_bytes:total ~deadline
      ~threshold_mbps:threshold ()
  in
  (p, threshold)

let test_deadline_initial_threshold () =
  (* 12.5 MB over 100 s = 1 Mbps; safety 1.2 -> 1.2 Mbps. *)
  let _, th = mk () in
  check_float ~eps:1e-9 "initial" 1.2 !th

let test_deadline_threshold_decreases_with_progress () =
  let p, th = mk () in
  (* Half the bytes delivered at half time: requirement unchanged. *)
  Deadline_policy.on_bytes p ~now:50.0 6_250_000;
  check_float ~eps:1e-9 "on schedule" 1.2 !th;
  (* Ahead of schedule: threshold drops, flow scavenges more. *)
  Deadline_policy.on_bytes p ~now:60.0 3_125_000;
  (* remaining 3.125 MB over 40 s = 0.625 Mbps * 1.2 *)
  check_float ~eps:1e-9 "ahead" 0.75 !th

let test_deadline_threshold_rises_when_behind () =
  let p, th = mk () in
  Deadline_policy.update p ~now:80.0;
  (* 12.5 MB over 20 s = 5 Mbps * 1.2 *)
  check_float ~eps:1e-9 "behind" 6.0 !th

let test_deadline_past_deadline_infinite () =
  let p, th = mk () in
  Deadline_policy.update p ~now:101.0;
  check_float "pure primary" infinity !th

let test_deadline_done_zero () =
  let p, th = mk () in
  Deadline_policy.on_bytes p ~now:10.0 12_500_000;
  check_float "pure scavenger" 0.0 !th;
  check_float "nothing left" 0.0 (Deadline_policy.bytes_remaining p)

let test_deadline_rejects_bad_args () =
  let th = ref 0.0 in
  Alcotest.check_raises "bytes"
    (Invalid_argument "Deadline_policy.create: total_bytes") (fun () ->
      ignore
        (Deadline_policy.create ~total_bytes:0 ~deadline:10.0
           ~threshold_mbps:th ()));
  Alcotest.check_raises "deadline"
    (Invalid_argument "Deadline_policy.create: deadline") (fun () ->
      ignore
        (Deadline_policy.create ~total_bytes:10 ~deadline:0.0
           ~threshold_mbps:th ()))

let test_deadline_flow_meets_deadline_under_competition () =
  (* A 30 MB transfer with a 60 s deadline on a 20 Mbps link shared with
     a COPA flow (Proteus-P shares fairly with COPA, so primary mode can
     actually win bandwidth). Pure scavenging would crawl; the deadline
     policy forces enough primary behaviour to finish in time. *)
  let link =
    Net.Link.config ~bandwidth_mbps:20.0 ~rtt_ms:30.0
      ~buffer_bytes:(Net.Units.kb 150.0) ()
  in
  let r = Net.Runner.create link in
  ignore
    (Net.Runner.add_flow r ~label:"copa"
       ~factory:(Proteus_cc.Copa.factory ()));
  let threshold = ref 0.0 in
  let policy =
    Deadline_policy.create ~total_bytes:30_000_000 ~deadline:60.0
      ~threshold_mbps:threshold ()
  in
  let factory =
    Controller.factory
      (Controller.default_config
         ~utility:(Utility.proteus_h ~threshold_mbps:threshold ()))
  in
  let flow =
    Net.Runner.add_flow r ~label:"deadline" ~factory ~size_bytes:30_000_000
      ~on_ack_bytes:(fun ~now n -> Deadline_policy.on_bytes policy ~now n)
  in
  Net.Runner.run r ~until:90.0;
  if not (Net.Runner.is_complete flow) then
    Alcotest.failf "transfer unfinished: %.1f MB left"
      (Deadline_policy.bytes_remaining policy /. 1e6);
  match Net.Runner.completion_time flow with
  | Some t when t <= 66.0 -> () (* small tolerance over the deadline *)
  | Some t -> Alcotest.failf "finished too late: %.1f s" t
  | None -> Alcotest.fail "no completion time"

(* ---------- Proportional utility (§2.2 strawman) ---------- *)

let metrics ?(rate = 10.0) ?(loss = 0.0) ?(gradient = 0.0) () =
  {
    Mi.send_rate_mbps = rate;
    target_rate_mbps = rate;
    loss_rate = loss;
    avg_rtt = 0.05;
    rtt_gradient = gradient;
    rtt_deviation = 0.0;
    regression_error = 0.0;
    duration = 0.05;
  }

let test_proportional_scales_penalties () =
  let u_half = Utility.proportional ~weight:0.5 () in
  let u_full = Utility.proportional ~weight:1.0 () in
  let m = metrics ~loss:0.05 () in
  let clean = metrics () in
  (* Equal on clean metrics... *)
  check_float "clean equal" (Utility.eval u_full clean)
    (Utility.eval u_half clean);
  (* ...but the low-weight sender is penalized twice as hard. *)
  let pen_full = Utility.eval u_full clean -. Utility.eval u_full m in
  let pen_half = Utility.eval u_half clean -. Utility.eval u_half m in
  check_float ~eps:1e-9 "double penalty" (2.0 *. pen_full) pen_half;
  (* No latency term at all: gradients are free (that is the §2.2
     critique). *)
  check_float "gradient ignored" (Utility.eval u_half clean)
    (Utility.eval u_half (metrics ~gradient:0.02 ()))

let test_proportional_rejects_nonpositive_weight () =
  Alcotest.check_raises "weight"
    (Invalid_argument "Utility.proportional: weight") (fun () ->
      ignore (Utility.proportional ~weight:0.0 ()))

let test_proportional_name () =
  Alcotest.(check string) "name" "proportional-0.5"
    (Utility.name (Utility.proportional ~weight:0.5 ()))

(* ---------- MI observer ---------- *)

module Trace = Proteus_obs.Trace

(* A Proteus-P flow alone on a 20 Mbps / 30 ms link for 10 s, its
   controller publishing on a private trace bus (which must not have
   dropped anything). Returns the bus and the controller. *)
let traced_proteus_run () =
  let cfg = Controller.default_config ~utility:(Utility.proteus_p ()) in
  let factory, get = Presets.with_handle cfg in
  let bus = Trace.create () in
  let factory env = factory { env with Net.Sender.trace = bus } in
  let link =
    Net.Link.config ~bandwidth_mbps:20.0 ~rtt_ms:30.0
      ~buffer_bytes:(Net.Units.kb 150.0) ()
  in
  let r = Net.Runner.create link in
  let _flow = Net.Runner.add_flow r ~label:"obs" ~factory in
  Net.Runner.run r ~until:10.0;
  Alcotest.(check int) "no trace drops" 0 (Trace.dropped bus);
  (bus, Option.get (get ()))

(* Completed MIs as the controller publishes them on its trace bus:
   Mi_boundary ([a] = duration) when an MI closes, Rate_decision
   ([b] = base rate, Mbps) when its result is consumed. *)
let test_observer_sees_completed_mis () =
  let bus, c = traced_proteus_run () in
  let decisions = ref 0 in
  let last_now = ref 0.0 in
  Trace.iter bus ~f:(fun e ->
      if e.time < !last_now then Alcotest.fail "event times not monotone";
      last_now := e.time;
      match e.kind with
      | Trace.Mi_boundary ->
          if e.a <= 0.0 then Alcotest.fail "bad MI duration"
      | Trace.Rate_decision ->
          incr decisions;
          if e.b <= 0.0 then Alcotest.fail "bad rate"
      | _ -> ());
  if !decisions = 0 then Alcotest.fail "no MI decisions traced";
  if !decisions > Controller.mi_count c then
    Alcotest.failf "%d decisions > %d completed MIs" !decisions
      (Controller.mi_count c)

let suite =
  [
    ("deadline initial", `Quick, test_deadline_initial_threshold);
    ("deadline progress", `Quick, test_deadline_threshold_decreases_with_progress);
    ("deadline behind", `Quick, test_deadline_threshold_rises_when_behind);
    ("deadline past", `Quick, test_deadline_past_deadline_infinite);
    ("deadline done", `Quick, test_deadline_done_zero);
    ("deadline bad args", `Quick, test_deadline_rejects_bad_args);
    ("deadline meets deadline", `Slow,
     test_deadline_flow_meets_deadline_under_competition);
    ("proportional scaling", `Quick, test_proportional_scales_penalties);
    ("proportional bad weight", `Quick, test_proportional_rejects_nonpositive_weight);
    ("proportional name", `Quick, test_proportional_name);
    ("mi observer", `Slow, test_observer_sees_completed_mis);
  ]
