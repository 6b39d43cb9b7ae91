(* The average is stored as a raw float with NaN standing for "no
   samples yet". An all-float record gets the flat (unboxed-field)
   representation, so [update] — called per ACK on the simulator's hot
   path — stores in place and allocates nothing. *)
type t = { alpha : float; mutable avg : float }

let create ~alpha =
  if alpha <= 0.0 || alpha > 1.0 then invalid_arg "Ewma.create: alpha";
  { alpha; avg = Float.nan }

let[@inline] update t x =
  if Float.is_nan t.avg then t.avg <- x
  else t.avg <- ((1.0 -. t.alpha) *. t.avg) +. (t.alpha *. x)

let value t = if Float.is_nan t.avg then None else Some t.avg

let value_exn t =
  if Float.is_nan t.avg then invalid_arg "Ewma.value_exn: no samples"
  else t.avg

module Mean_dev = struct
  type nonrec t = {
    mean : t;
    dev : t;
    mutable n : int;
  }

  let create ?(alpha = 0.125) ?(beta = 0.25) () =
    { mean = create ~alpha; dev = create ~alpha:beta; n = 0 }

  let[@inline] push t x =
    if not (Float.is_nan t.mean.avg) then
      update t.dev (Float.abs (x -. t.mean.avg));
    update t.mean x;
    t.n <- t.n + 1

  let update t x = push t x

  (* The per-ACK form: the sample comes from a float array, so it is
     not boxed at the call. *)
  let update_from t a i = push t a.(i)
  let[@inline] mean_nan t = t.mean.avg
  let[@inline] deviation_nan t = t.dev.avg
  let deviation_into t a i = a.(i) <- t.dev.avg
  let n_samples t = t.n
end
