type fit = { slope : float; intercept : float; residual_rms : float }

(* [for] loops in the summation order of the [fold_left]s they
   replaced, so the fit is bit-identical to it with unboxed
   accumulators. *)
let fit_prefix_into ~x ~y ~len ~out =
  if len <= 0 || len > Array.length x || len > Array.length y then
    invalid_arg "Regression.fit: length mismatch or empty";
  let nf = float_of_int len in
  let sx = ref 0.0 and sy = ref 0.0 in
  for i = 0 to len - 1 do
    sx := !sx +. Array.unsafe_get x i
  done;
  for i = 0 to len - 1 do
    sy := !sy +. Array.unsafe_get y i
  done;
  let mx = !sx /. nf and my = !sy /. nf in
  let sxx = ref 0.0 and sxy = ref 0.0 in
  for i = 0 to len - 1 do
    let dx = Array.unsafe_get x i -. mx in
    sxx := !sxx +. (dx *. dx);
    sxy := !sxy +. (dx *. (Array.unsafe_get y i -. my))
  done;
  let slope = if !sxx = 0.0 then 0.0 else !sxy /. !sxx in
  let intercept = my -. (slope *. mx) in
  let ss_res = ref 0.0 in
  for i = 0 to len - 1 do
    let r =
      Array.unsafe_get y i -. (intercept +. (slope *. Array.unsafe_get x i))
    in
    ss_res := !ss_res +. (r *. r)
  done;
  out.(0) <- slope;
  out.(1) <- intercept;
  out.(2) <- sqrt (!ss_res /. nf)

let fit_prefix ~x ~y ~len =
  let out = Array.create_float 3 in
  fit_prefix_into ~x ~y ~len ~out;
  { slope = out.(0); intercept = out.(1); residual_rms = out.(2) }

let fit ~x ~y =
  let n = Array.length x in
  if Array.length y <> n then
    invalid_arg "Regression.fit: length mismatch or empty";
  fit_prefix ~x ~y ~len:n

(* [fit]'s slope against x = 1..len, with x computed in place of an
   index array. *)
let slope_of_indexed ys ~len =
  if len <= 0 || len > Array.length ys then
    invalid_arg "Regression.fit: length mismatch or empty";
  let nf = float_of_int len in
  let sx = ref 0.0 and sy = ref 0.0 in
  for i = 0 to len - 1 do
    sx := !sx +. float_of_int (i + 1)
  done;
  for i = 0 to len - 1 do
    sy := !sy +. Array.unsafe_get ys i
  done;
  let mx = !sx /. nf and my = !sy /. nf in
  let sxx = ref 0.0 and sxy = ref 0.0 in
  for i = 0 to len - 1 do
    let dx = float_of_int (i + 1) -. mx in
    sxx := !sxx +. (dx *. dx);
    sxy := !sxy +. (dx *. (Array.unsafe_get ys i -. my))
  done;
  if !sxx = 0.0 then 0.0 else !sxy /. !sxx
