(* Monotonic deque on a growable power-of-two ring buffer: O(1) access
   to both ends, amortized O(1) per update. (List-based variants degrade
   to O(window) per update on monotone inputs — e.g. RTTs rising while a
   queue builds — turning minute-long simulations quadratic.)

   The per-ACK entry points take their floats through a caller's float
   array and write results into one, and the window length lives in a
   one-slot float array: a float argument, result or mutable field of
   this mixed record would be boxed at every call across the module
   boundary (and every store), and BBR and Copa call this per ACK. *)
type t = {
  max : bool; (* Max mode; Min otherwise *)
  win : float array; (* [| window |] *)
  mutable times : float array;
  mutable values : float array;
  mutable mask : int; (* capacity - 1 *)
  mutable head : int; (* index of oldest entry *)
  mutable len : int;
}

let initial_capacity = 16

let make max window =
  {
    max;
    win = [| window |];
    times = Array.create_float initial_capacity;
    values = Array.create_float initial_capacity;
    mask = initial_capacity - 1;
    head = 0;
    len = 0;
  }

let create_min ~window = make false window
let create_max ~window = make true window

let grow t =
  let cap = t.mask + 1 in
  let ntimes = Array.create_float (2 * cap) in
  let nvalues = Array.create_float (2 * cap) in
  for i = 0 to t.len - 1 do
    let j = (t.head + i) land t.mask in
    ntimes.(i) <- t.times.(j);
    nvalues.(i) <- t.values.(j)
  done;
  t.times <- ntimes;
  t.values <- nvalues;
  t.mask <- (2 * cap) - 1;
  t.head <- 0

let[@inline] push t now v =
  (* Expire old entries from the front. *)
  let cutoff = now -. t.win.(0) in
  while t.len > 0 && t.times.(t.head) < cutoff do
    t.head <- (t.head + 1) land t.mask;
    t.len <- t.len - 1
  done;
  (* Remove dominated entries from the back. *)
  while
    t.len > 0
    &&
    let b = t.values.((t.head + t.len - 1) land t.mask) in
    if t.max then v >= b else v <= b
  do
    t.len <- t.len - 1
  done;
  if t.len = t.mask + 1 then grow t;
  let tail = (t.head + t.len) land t.mask in
  t.times.(tail) <- now;
  t.values.(tail) <- v;
  t.len <- t.len + 1

let update t ~now v = push t now v
let update_from t a ~time ~value = push t a.(time) a.(value)
let get_into t a i =
  a.(i) <- (if t.len = 0 then Float.nan else t.values.(t.head))
let get t = if t.len = 0 then None else Some t.values.(t.head)

let get_exn t =
  if t.len = 0 then invalid_arg "Winfilter.get_exn: no samples"
  else t.values.(t.head)

let set_window t w = t.win.(0) <- w
let set_window_from t a i = t.win.(0) <- a.(i)
