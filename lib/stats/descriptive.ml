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

(* [x ** 2.0] bit for bit, mostly without the libm call: libm's
   [pow (d, 2)] and [d *. d] differ in the last bit for about one [d]
   in a thousand, and every committed golden was computed with [pow].
   [p = d *. d] is the correctly rounded square and Dekker's product
   gives its exact error [e]. glibc documents [pow]'s worst-case error
   as 0.54 ulp, so [pow] returns the correctly rounded value whenever
   the exact square lies more than 0.04 ulp from a rounding midpoint;
   [p +. 1.125 *. e = p] holds only when it lies at least 1/18 ulp
   from one. Otherwise, and outside 2^-450 < |x| < 2^450 (where an
   error term could leave the normal range) except for ±0, the kernel
   calls [**]. DESIGN §2b has the argument; [Cubic.cube] is the same
   kernel one product longer. *)
let veltkamp = 134217729.0 (* 2^27 + 1 *)

let[@inline] square x =
  let a = Float.abs x in
  if a < 0x1p450 && (a > 0x1p-450 || a = 0.0) then begin
    let t = veltkamp *. x in
    let xh = t -. (t -. x) in
    let xl = x -. xh in
    let p = x *. x in
    let e = (((xh *. xh) -. p) +. (2.0 *. xh *. xl)) +. (xl *. xl) in
    if p +. (1.125 *. e) = p then p else x ** 2.0
  end
  else x ** 2.0

(* Branch-only [Float.max] / [Float.min]: a strict comparison settles
   every ordered pair of distinct values, and [=] every equal pair.
   Equal values share their bits unless they are zeros of opposite
   sign; then the sum is the maximum (+0 + -0 = +0) and the negated sum
   of the negations the minimum. The stdlib functions, which call the
   C [caml_signbit], settle only a NaN operand. *)
let[@inline] fmax (a : float) b =
  if a > b then a
  else if b > a then b
  else if a = b then (if a = 0.0 then a +. b else a)
  else Float.max a b

let[@inline] fmin (a : float) b =
  if a < b then a
  else if b < a then b
  else if a = b then (if a = 0.0 then -.(-.a -. b) else a)
  else Float.min a b

let[@inline] variance_around xs ~len m =
  let s = ref 0.0 in
  for i = 0 to len - 1 do
    s := !s +. square (Array.unsafe_get xs i -. m)
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
    (fun (lo, hi) x -> (fmin lo x, fmax hi x))
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
