type t = {
  mutable tags : int array; (* seq, or [empty] *)
  mutable recs : float array;
}

let empty = min_int
let initial_capacity = 16

let create () =
  {
    tags = Array.make initial_capacity empty;
    recs = Array.create_float initial_capacity;
  }

let capacity r = Array.length r.tags

(* Double the table. Live seqs are distinct modulo the old capacity, so
   they stay distinct modulo twice it: the rehash never collides. *)
let grow r =
  let n = 2 * capacity r in
  let tags = Array.make n empty and recs = Array.create_float n in
  Array.iteri
    (fun j k ->
      if k <> empty then begin
        let i = k land (n - 1) in
        tags.(i) <- k;
        recs.(i) <- r.recs.(j)
      end)
    r.tags;
  r.tags <- tags;
  r.recs <- recs

let rec add r seq a i =
  let e = seq land (capacity r - 1) in
  let k = r.tags.(e) in
  if k = seq || k = empty then begin
    r.tags.(e) <- seq;
    r.recs.(e) <- a.(i)
  end
  else begin
    grow r;
    add r seq a i
  end

let mem r seq = seq <> empty && r.tags.(seq land (capacity r - 1)) = seq

let take r seq a i =
  let e = seq land (capacity r - 1) in
  if seq <> empty && r.tags.(e) = seq then begin
    r.tags.(e) <- empty;
    a.(i) <- r.recs.(e);
    true
  end
  else false

let remove r seq =
  let e = seq land (capacity r - 1) in
  if r.tags.(e) = seq then r.tags.(e) <- empty
