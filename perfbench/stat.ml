let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stat.median: empty";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  if n land 1 = 1 then s.(n / 2) else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))

module Reps = struct
  type t = float list array

  let create n = Array.make n []
  let add t u x = t.(u) <- x :: t.(u)
  let units = Array.length
  let times t u = Array.of_list (List.rev t.(u))

  let best t u =
    match t.(u) with
    | [] -> invalid_arg "Stat.Reps.best: unit has no reps"
    | x :: rest -> List.fold_left Float.min x rest

  let timed t = List.filter (fun u -> t.(u) <> []) (List.init (units t) Fun.id)
  let median_all t = Array.of_list (List.map (fun u -> median (times t u)) (timed t))
  let sum_median t = Array.fold_left ( +. ) 0.0 (median_all t)

  let spread t =
    median
      (Array.of_list
         (List.map
            (fun u ->
              let b = best t u in
              (median (times t u) -. b) /. b)
            (timed t)))
end

(* Two fixed kernels whose slowdown brackets the simulator's when the
   host is busy: hashtable churn over fresh cons cells (minor-heap
   allocation, scattered stores, some promotion) slows a little less
   than the simulator, a stream of short-lived cells (allocation and
   minor collections alone) a little more. Neither leaves live data or
   major-heap garbage behind. Arithmetic loops, pointer chases and array
   fills track worse, and a kernel that promotes garbage would bill the
   simulator's units for its major-GC work. Each takes about 1 ms on a
   quiet host. *)
let churn_kernel () =
  let h = Hashtbl.create 64 in
  for i = 1 to 20_000 do
    Hashtbl.replace h (i land 1023) [ float_of_int i ]
  done;
  Hashtbl.length h

let alloc_kernel () =
  let l = ref [] in
  for i = 1 to 60_000 do
    l := [ float_of_int i ];
    if i land 63 = 0 then l := []
  done;
  List.length !l

let time_ns f =
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (f ()) : int);
  seconds_since t0

module Pass = struct
  type t = {
    mutable staged : (Reps.t * int * float) list;  (* newest first *)
    mutable refs : (float * float) list;
  }

  let create () = { staged = []; refs = [] }
  let add p reps u x = p.staged <- (reps, u, x) :: p.staged
  let add_reference p r = p.refs <- r :: p.refs

  let reference p =
    let a = time_ns churn_kernel in
    add_reference p (a, time_ns alloc_kernel)

  let commit p ~nominal =
    if p.refs = [] then invalid_arg "Stat.Pass.commit: no reference time";
    let med f = median (Array.of_list (List.map f p.refs)) in
    let f = sqrt (med fst *. med snd) /. nominal in
    List.iter (fun (reps, u, x) -> Reps.add reps u (x /. f)) (List.rev p.staged);
    p.staged <- [];
    p.refs <- [];
    f
end

let passes ~continue f =
  let rec go n =
    if continue n then begin
      f n;
      go (n + 1)
    end
    else n
  in
  go 0

let budget ~min ~max ~seconds =
  let t0 = now_ns () in
  fun done_ -> done_ < min || (done_ < max && seconds_since t0 < seconds)

let min_beyond = 10

let percentile ~p xs =
  let n = Array.length xs in
  if not (p > 0.0 && p < 100.0) then invalid_arg "Stat.percentile: p";
  if n = 0 then None
  else
    let rank = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))) in
    let beyond = n - rank in
    if beyond < min_beyond then None
    else begin
      let s = Array.copy xs in
      Array.sort Float.compare s;
      Some (s.(rank - 1), beyond)
    end

let seed_of_string s =
  let d = Digest.string s in
  let v = ref 0 in
  for i = 0 to 6 do
    v := (!v lsl 8) lor Char.code d.[i]
  done;
  1 + (!v mod 999_999_999)

let unit_seed ws id = seed_of_string (Printf.sprintf "perfbench/%d/%s" ws id)
let mix_seed ws base = seed_of_string (Printf.sprintf "perfbench/%d/#%d" ws base)
