(* Tests for the event heap and simulation kernel. *)

open Proteus_eventsim

(* ---------- Heap ---------- *)

let test_heap_orders () =
  let h = Heap.create () in
  List.iter (fun t -> Heap.push h ~time:t t) [ 3.0; 1.0; 2.0; 0.5 ];
  let order = List.init 4 (fun _ -> fst (Option.get (Heap.pop h))) in
  Alcotest.(check (list (float 1e-9))) "sorted" [ 0.5; 1.0; 2.0; 3.0 ] order

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~time:1.0 v) [ "a"; "b"; "c" ];
  let order = List.init 3 (fun _ -> snd (Option.get (Heap.pop h))) in
  Alcotest.(check (list string)) "fifo" [ "a"; "b"; "c" ] order

let test_heap_empty () =
  let h : int Heap.t = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check bool) "pop none" true (Heap.pop h = None);
  Alcotest.(check bool) "peek none" true (Heap.peek_time h = None)

let test_heap_interleaved () =
  let h = Heap.create () in
  Heap.push h ~time:5.0 5;
  Heap.push h ~time:1.0 1;
  Alcotest.(check bool) "pop 1" true (Heap.pop h = Some (1.0, 1));
  Heap.push h ~time:3.0 3;
  Alcotest.(check bool) "pop 3" true (Heap.pop h = Some (3.0, 3));
  Alcotest.(check bool) "pop 5" true (Heap.pop h = Some (5.0, 5))

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 100) (float_bound_exclusive 1000.0))
    (fun times ->
      let h = Heap.create () in
      List.iter (fun t -> Heap.push h ~time:t ()) times;
      let popped = List.init (List.length times) (fun _ ->
          fst (Option.get (Heap.pop h))) in
      let sorted = List.sort compare times in
      List.for_all2 (fun a b -> Float.abs (a -. b) < 1e-12) popped sorted)

(* Random push/pop interleavings against a sorted reference model. Times
   are drawn from a tiny set so equal-time ties are frequent; payloads
   are unique ids, so the model checks FIFO order within ties exactly. *)
let prop_heap_model =
  let op_gen =
    QCheck.Gen.(
      frequency
        [ (3, map (fun t -> `Push (float_of_int t)) (int_range 0 4));
          (2, return `Pop) ])
  in
  let ops_arb =
    QCheck.make
      ~print:(fun ops ->
        String.concat ";"
          (List.map
             (function `Push t -> Printf.sprintf "push %.0f" t | `Pop -> "pop")
             ops))
      (QCheck.Gen.list_size (QCheck.Gen.int_range 0 200) op_gen)
  in
  QCheck.Test.make ~name:"heap matches sorted reference model (FIFO ties)"
    ~count:500 ops_arb (fun ops ->
      let h = Heap.create () in
      (* model: list of (time, insertion order, id), kept stably sorted *)
      let model = ref [] in
      let next_id = ref 0 and next_ord = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | `Push time ->
              let id = !next_id and ord = !next_ord in
              incr next_id;
              incr next_ord;
              Heap.push h ~time id;
              model :=
                List.merge
                  (fun (t1, o1, _) (t2, o2, _) -> compare (t1, o1) (t2, o2))
                  !model
                  [ (time, ord, id) ]
          | `Pop -> (
              match (Heap.pop h, !model) with
              | None, [] -> ()
              | Some (t, id), (mt, _, mid) :: rest ->
                  if t <> mt || id <> mid then ok := false;
                  model := rest
              | Some _, [] | None, _ :: _ -> ok := false))
        ops;
      (* drain: the leftovers must come out in model order too *)
      List.iter
        (fun (mt, _, mid) ->
          match Heap.pop h with
          | Some (t, id) when t = mt && id = mid -> ()
          | _ -> ok := false)
        !model;
      !ok && Heap.is_empty h)

let test_heap_pop_into () =
  let h = Heap.create () in
  List.iter (fun t -> Heap.push h ~time:t (int_of_float t)) [ 3.0; 1.0; 2.0 ];
  let slot = Heap.make_slot ~time:0.0 0 in
  Alcotest.(check bool) "pop 1" true (Heap.pop_into h slot);
  Alcotest.(check (float 1e-12)) "time 1" 1.0 slot.Heap.time;
  Alcotest.(check int) "payload 1" 1 slot.Heap.payload;
  Alcotest.(check bool) "pop 2" true (Heap.pop_into h slot);
  Alcotest.(check bool) "pop 3" true (Heap.pop_into h slot);
  Alcotest.(check (float 1e-12)) "time 3" 3.0 slot.Heap.time;
  Alcotest.(check bool) "empty" false (Heap.pop_into h slot);
  Alcotest.(check (float 1e-12)) "slot untouched" 3.0 slot.Heap.time

let test_heap_filter () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~time:(float_of_int (v mod 3)) v)
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ];
  Heap.filter_in_place h (fun v -> v mod 2 = 0);
  Alcotest.(check int) "length" 5 (Heap.length h);
  let popped = List.init 5 (fun _ -> snd (Option.get (Heap.pop h))) in
  (* evens sorted by (time = v mod 3, insertion order) *)
  Alcotest.(check (list int)) "order" [ 0; 6; 4; 2; 8 ] popped

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

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let c = Sim.at_cancellable sim ~time:1.0 (fun () -> fired := true) in
  Sim.cancel c;
  Sim.run sim;
  Alcotest.(check bool) "cancelled" false !fired

let test_sim_cancel_twice_ok () =
  let sim = Sim.create () in
  let c = Sim.at_cancellable sim ~time:1.0 (fun () -> ()) in
  Sim.cancel c;
  Sim.cancel c;
  Sim.run sim

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
   the one pointer it holds, and cancelling drops it at once, while
   the dead cell still waits in the heap for its fire time. *)
let[@inline never] schedule_holding sim w ~time =
  let payload = Bytes.make 64 'x' in
  Weak.set w 0 (Some payload);
  Sim.at_cancellable sim ~time (fun () -> ignore (Bytes.length payload))

let test_sim_cancel_drops_closure () =
  let sim = Sim.create () in
  for i = 1 to 3 do
    Sim.at sim ~time:(float_of_int i) ignore
  done;
  let kept = Weak.create 1 and dropped = Weak.create 1 in
  let _live = schedule_holding sim kept ~time:5.0 in
  let c = schedule_holding sim dropped ~time:6.0 in
  Sim.cancel c;
  Alcotest.(check int) "dead cell still queued" 5 (Sim.queued sim);
  Gc.full_major ();
  Alcotest.(check bool) "live closure retained" true (Weak.check kept 0);
  Alcotest.(check bool) "cancelled closure dropped" false (Weak.check dropped 0);
  Sim.run sim;
  Alcotest.(check int) "drained" 0 (Sim.queued sim)

(* Cancelled events must not sit in the heap until their nominal fire
   time: once more than half the queue is dead it is compacted. *)
let test_sim_cancel_compacts () =
  let sim = Sim.create () in
  let handles =
    List.init 100 (fun i ->
        Sim.at_cancellable sim ~time:(1e6 +. float_of_int i) (fun () -> ()))
  in
  Alcotest.(check int) "queued" 100 (Sim.queued sim);
  List.iter Sim.cancel handles;
  Alcotest.(check int) "compacted away" 0 (Sim.queued sim);
  Alcotest.(check int) "pending" 0 (Sim.pending sim);
  (* a mixed population keeps the live ones *)
  let fired = ref 0 in
  let keep = List.init 10 (fun i -> float_of_int (i + 1)) in
  List.iter (fun t -> Sim.at sim ~time:t (fun () -> incr fired)) keep;
  let dead =
    List.init 90 (fun i ->
        Sim.at_cancellable sim ~time:(2e6 +. float_of_int i) (fun () -> ()))
  in
  List.iter Sim.cancel dead;
  Alcotest.(check bool) "dead mostly gone" true (Sim.queued sim <= 20);
  Alcotest.(check int) "live retained" 10 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check int) "all live fired" 10 !fired

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
    ("heap orders", `Quick, test_heap_orders);
    ("heap fifo ties", `Quick, test_heap_fifo_ties);
    ("heap empty", `Quick, test_heap_empty);
    ("heap interleaved", `Quick, test_heap_interleaved);
    ("sim order", `Quick, test_sim_runs_in_order);
    ("sim clock", `Quick, test_sim_clock_advances);
    ("sim until", `Quick, test_sim_until_stops);
    ("sim chained scheduling", `Quick, test_sim_handlers_can_schedule);
    ("sim past clamp", `Quick, test_sim_past_events_clamp);
    ("sim cancel", `Quick, test_sim_cancel);
    ("sim double cancel", `Quick, test_sim_cancel_twice_ok);
    ("sim pending", `Quick, test_sim_pending);
    ("heap pop_into", `Quick, test_heap_pop_into);
    ("heap filter_in_place", `Quick, test_heap_filter);
    ("sim at_fn", `Quick, test_sim_at_fn);
    ("sim handlers fire in (time, seq) order", `Quick, test_sim_handlers_order);
    ("sim cancel drops the closure", `Quick, test_sim_cancel_drops_closure);
    ("sim cancel compacts", `Quick, test_sim_cancel_compacts);
    ("sim pool reuse", `Quick, test_sim_pool_reuse);
  ]
  @ [
      QCheck_alcotest.to_alcotest prop_heap_sorts;
      QCheck_alcotest.to_alcotest prop_heap_model;
    ]
