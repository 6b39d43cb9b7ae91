(* Tests for the simulation kernel. *)

open Proteus_eventsim

(* ---------- Sim ---------- *)

let test_sim_runs_in_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.at sim ~time:2.0 (fun () -> log := 2 :: !log);
  Sim.at sim ~time:1.0 (fun () -> log := 1 :: !log);
  Sim.at sim ~time:3.0 (fun () -> log := 3 :: !log);
  Sim.run sim;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log)

let test_sim_clock_advances () =
  let sim = Sim.create () in
  let seen = ref 0.0 in
  Sim.at sim ~time:5.5 (fun () -> seen := Sim.now sim);
  Sim.run sim;
  Alcotest.(check (float 1e-12)) "clock at handler" 5.5 !seen

let test_sim_until_stops () =
  let sim = Sim.create () in
  let fired = ref false in
  Sim.at sim ~time:10.0 (fun () -> fired := true);
  Sim.run ~until:5.0 sim;
  Alcotest.(check bool) "not fired" false !fired;
  Alcotest.(check (float 1e-12)) "clock = until" 5.0 (Sim.now sim);
  Sim.run ~until:20.0 sim;
  Alcotest.(check bool) "fired later" true !fired

let test_sim_handlers_can_schedule () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec chain n =
    if n > 0 then
      Sim.after sim ~delay:1.0 (fun () ->
          incr count;
          chain (n - 1))
  in
  chain 5;
  Sim.run sim;
  Alcotest.(check int) "chained" 5 !count;
  Alcotest.(check (float 1e-12)) "final time" 5.0 (Sim.now sim)

let test_sim_past_events_clamp () =
  let sim = Sim.create () in
  let times = ref [] in
  Sim.at sim ~time:3.0 (fun () ->
      (* scheduling in the past clamps to now *)
      Sim.at sim ~time:1.0 (fun () -> times := Sim.now sim :: !times));
  Sim.run sim;
  Alcotest.(check (list (float 1e-12))) "clamped" [ 3.0 ] !times

let test_sim_pending () =
  let sim = Sim.create () in
  Sim.at sim ~time:1.0 (fun () -> ());
  Sim.at sim ~time:2.0 (fun () -> ());
  Alcotest.(check int) "pending" 2 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check int) "drained" 0 (Sim.pending sim)

let test_sim_at_fn () =
  let sim = Sim.create () in
  let log = ref [] in
  let fn = Sim.register sim (fun i -> log := (i, Sim.now sim) :: !log) in
  Sim.at_fn sim ~time:2.0 ~fn ~arg:2;
  Sim.at_fn sim ~time:1.0 ~fn ~arg:1;
  Sim.at_fn sim ~time:1.0 ~fn ~arg:10;
  Sim.run sim;
  Alcotest.(check (list (pair int (float 1e-12))))
    "order + args + clock"
    [ (1, 1.0); (10, 1.0); (2, 2.0) ]
    (List.rev !log)

(* Handlers registered once fire in (time, seq) order whichever of
   them an event names: the firing log equals the schedule sorted by
   time, ties in scheduling order. A placeholder handler is refused. *)
let test_sim_handlers_order () =
  let sim = Sim.create () in
  let log = ref [] in
  let hs =
    Array.init 3 (fun h -> Sim.register sim (fun arg -> log := (h, arg) :: !log))
  in
  let lane = Sim.lane sim in
  let times = [| 3.0; 1.0; 2.0; 1.0; 3.0; 0.5; 2.0; 1.0; 100.0 |] in
  Array.iteri
    (fun i time ->
      let h = hs.(i mod 3) in
      if i mod 4 = 3 then
        Sim.lane_push sim lane ~time ~seq:(Sim.reserve_seq sim) ~fn:h ~arg:i
      else Sim.at_fn sim ~time ~fn:h ~arg:i)
    times;
  Sim.run sim;
  let expected =
    Array.to_list (Array.mapi (fun i time -> (time, i)) times)
    |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
    |> List.map (fun (_, i) -> (i mod 3, i))
  in
  Alcotest.(check (list (pair int int))) "(time, seq) order" expected
    (List.rev !log);
  Alcotest.check_raises "placeholder refused"
    (Invalid_argument "Sim: handler not registered with this sim") (fun () ->
      Sim.at_fn sim ~time:1.0 ~fn:Sim.no_handler ~arg:0)

(* The pool keeps ints for handler cells; a thunk cell's closure is
   the one pointer it holds, and releasing the cell once it has fired
   drops it, while a cell still queued keeps its closure. *)
let[@inline never] schedule_holding sim w ~time =
  let payload = Bytes.make 64 'x' in
  Weak.set w 0 (Some payload);
  Sim.at sim ~time (fun () -> ignore (Bytes.length payload))

let test_sim_fired_thunk_released () =
  let sim = Sim.create () in
  let fired = Weak.create 1 and queued = Weak.create 1 in
  schedule_holding sim fired ~time:1.0;
  schedule_holding sim queued ~time:5.0;
  Sim.run ~until:2.0 sim;
  Gc.full_major ();
  Alcotest.(check bool) "fired closure released" false (Weak.check fired 0);
  Alcotest.(check bool) "queued closure retained" true (Weak.check queued 0);
  Sim.run sim;
  Gc.full_major ();
  Alcotest.(check bool) "drained closure released" false (Weak.check queued 0)

(* No event can fire at NaN, at an infinite time, or at or past
   [Sim.max_time]: scheduling one raises, queues nothing, and leaves
   the sim usable. *)
let test_sim_refuses_bad_times () =
  let sim = Sim.create () in
  let fn = Sim.register sim ignore in
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  let too_far = Sim.max_time in
  List.iter
    (fun time ->
      let what = Printf.sprintf "time %g" time in
      refused ("at " ^ what) (fun () -> Sim.at sim ~time ignore);
      refused ("after " ^ what) (fun () -> Sim.after sim ~delay:time ignore);
      refused ("at_fn " ^ what) (fun () -> Sim.at_fn sim ~time ~fn ~arg:0))
    [ Float.nan; infinity; neg_infinity; too_far; 1e16 ];
  Alcotest.(check int) "nothing queued" 0 (Sim.pending sim);
  Alcotest.(check int) "nothing scheduled" 0 (Sim.events_scheduled sim);
  let fired = ref 0 in
  Sim.at sim ~time:1.0 (fun () -> incr fired);
  Sim.at_fn sim ~time:(too_far *. 0.5) ~fn ~arg:0;
  Sim.run sim;
  Alcotest.(check int) "later events fire" 1 !fired;
  Alcotest.(check int) "drained" 0 (Sim.pending sim)

let test_sim_pool_reuse () =
  (* A long schedule/fire chain through the pooled kernel must recycle
     cells rather than grow the pool: queued never exceeds the number
     of simultaneously outstanding events. *)
  let sim = Sim.create () in
  let count = ref 0 in
  let rec chain n =
    if n > 0 then
      Sim.after sim ~delay:0.001 (fun () ->
          incr count;
          chain (n - 1))
  in
  chain 10_000;
  Sim.run sim;
  Alcotest.(check int) "chained" 10_000 !count;
  Alcotest.(check int) "drained" 0 (Sim.pending sim)

let suite =
  [
    ("sim order", `Quick, test_sim_runs_in_order);
    ("sim clock", `Quick, test_sim_clock_advances);
    ("sim until", `Quick, test_sim_until_stops);
    ("sim chained scheduling", `Quick, test_sim_handlers_can_schedule);
    ("sim past clamp", `Quick, test_sim_past_events_clamp);
    ("sim pending", `Quick, test_sim_pending);
    ("sim at_fn", `Quick, test_sim_at_fn);
    ("sim handlers fire in (time, seq) order", `Quick, test_sim_handlers_order);
    ("sim fired thunk's closure is released", `Quick,
      test_sim_fired_thunk_released);
    ("sim refuses NaN, infinite and too-far times", `Quick,
      test_sim_refuses_bad_times);
    ("sim pool reuse", `Quick, test_sim_pool_reuse);
  ]
