(* Storage comes from [Array.create_float]: elements at [len] and
   beyond are never read, so zero-filling them on create and on every
   doubling would be wasted stores. *)
type t = { mutable data : float array; mutable len : int }

let create ?(capacity = 64) () =
  { data = Array.create_float (max 1 capacity); len = 0 }

let length t = t.len

let grow t =
  let ndata = Array.create_float (2 * t.len) in
  Array.blit t.data 0 ndata 0 t.len;
  t.data <- ndata

let[@inline] push t x =
  if t.len = Array.length t.data then grow t;
  (* The guard above guarantees [len < length data]. *)
  Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Fvec.get";
  t.data.(i)

let to_array t = Array.sub t.data 0 t.len

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let sub_array t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Fvec.sub_array";
  Array.sub t.data pos len

let last t = if t.len = 0 then None else Some t.data.(t.len - 1)
