(* Left-to-right [for] loops over a length prefix: the summation order
   of the [Array.fold_left] they replace, so results are bit-identical
   to it, but the accumulator stays unboxed. *)
let check_prefix xs ~len what =
  if len <= 0 || len > Array.length xs then invalid_arg what

let[@inline] sum_prefix xs ~len =
  let s = ref 0.0 in
  for i = 0 to len - 1 do
    s := !s +. Array.unsafe_get xs i
  done;
  !s

let mean_prefix xs ~len =
  check_prefix xs ~len "Descriptive.mean: empty";
  sum_prefix xs ~len /. float_of_int len

(* Keep [** 2.0]: libm's [pow (d, 2)] and [d *. d] differ in the last
   bit for some [d], and every committed golden was computed with
   [pow]. *)
let[@inline] variance_around xs ~len m =
  let s = ref 0.0 in
  for i = 0 to len - 1 do
    s := !s +. ((Array.unsafe_get xs i -. m) ** 2.0)
  done;
  !s /. float_of_int len

let variance_prefix xs ~len =
  check_prefix xs ~len "Descriptive.variance: empty";
  variance_around xs ~len (sum_prefix xs ~len /. float_of_int len)

let moments_prefix_into xs ~len ~out =
  check_prefix xs ~len "Descriptive.mean: empty";
  let m = sum_prefix xs ~len /. float_of_int len in
  out.(0) <- m;
  out.(1) <- sqrt (variance_around xs ~len m)
let mean xs = mean_prefix xs ~len:(Array.length xs)
let variance xs = variance_prefix xs ~len:(Array.length xs)
let stddev xs = sqrt (variance xs)

(* Hoare selection (Wirth's variant) in [Float.compare] order: permutes
   [a] so that [a.(k)] holds the k-th smallest element, with nothing
   larger before it and nothing smaller after it. *)
let select a k =
  let l = ref 0 and r = ref (Array.length a - 1) in
  while !l < !r do
    let pivot = a.(!l + ((!r - !l) / 2)) in
    let i = ref !l and j = ref !r in
    while !i <= !j do
      while Float.compare a.(!i) pivot < 0 do incr i done;
      while Float.compare pivot a.(!j) < 0 do decr j done;
      if !i <= !j then begin
        let x = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- x;
        incr i;
        decr j
      end
    done;
    if !j < k then l := !i;
    if k < !i then r := !j
  done

(* The two order statistics the interpolation reads, found on one copy:
   select [lo], then the [hi] statistic is the minimum of the part after
   it. [Float.compare] orders floats as the polymorphic [compare] does
   (NaN first, -0.0 equal to 0.0), so this reads the same two values
   sorting the copy would, up to which of two [compare]-equal samples
   is read. *)
let percentile xs ~p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Descriptive.percentile: empty";
  if Float.is_nan p || p < 0.0 || p > 100.0 then
    invalid_arg "Descriptive.percentile: p";
  if n = 1 then xs.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    let a = Array.copy xs in
    select a lo;
    let x_hi = ref a.(hi) in
    for i = hi + 1 to n - 1 do
      if Float.compare a.(i) !x_hi < 0 then x_hi := a.(i)
    done;
    (a.(lo) *. (1.0 -. frac)) +. (!x_hi *. frac)
  end

let median xs = percentile xs ~p:50.0

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Descriptive.min_max: empty";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0)) xs

let jain_index xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Descriptive.jain_index: empty";
  let s = Array.fold_left ( +. ) 0.0 xs in
  let s2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
  if s2 = 0.0 then 1.0 else s *. s /. (float_of_int n *. s2)

let cdf_points xs =
  let n = Array.length xs in
  if n = 0 then []
  else begin
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    List.init n (fun i ->
        (sorted.(i), float_of_int (i + 1) /. float_of_int n))
  end

let normalize xs =
  if Array.length xs = 0 then xs
  else begin
    let _, hi = min_max xs in
    if hi = 0.0 then Array.copy xs else Array.map (fun x -> x /. hi) xs
  end
