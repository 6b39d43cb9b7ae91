type route = { fwd : int array; rev : int array }

(* Per-link fluid attachment: background classes plus the aggregate's
   buffer-share override ([None] = Aggregate.create default). *)
type fluid_spec = { f_share : float option; f_classes : Aggregate.cls list }

type t = {
  links : Link.config array;
  chain_hops : int; (* > 0 iff built by [chain] *)
  fluid : fluid_spec option array; (* indexed by link id *)
}

let num_links t = Array.length t.links
let link_config t i = t.links.(i)
let chain_hops t = t.chain_hops

let no_fluid n : fluid_spec option array = Array.make n None

let make = function
  | [] -> invalid_arg "Topology.make: a topology needs at least one link"
  | links ->
      {
        links = Array.of_list links;
        chain_hops = 0;
        fluid = no_fluid (List.length links);
      }

let chain ?rev fwd =
  let n = List.length fwd in
  if n = 0 then invalid_arg "Topology.chain: a chain needs at least one hop";
  let rev = match rev with Some r -> r | None -> fwd in
  if List.length rev <> n then
    invalid_arg
      (Printf.sprintf
         "Topology.chain: %d reverse-direction links for %d forward hops"
         (List.length rev) n);
  {
    links = Array.of_list (fwd @ rev);
    chain_hops = n;
    fluid = no_fluid (2 * n);
  }

let dumbbell cfg = chain [ cfg ]

let with_fluid ?buffer_share t ~link classes =
  if link < 0 || link >= num_links t then
    invalid_arg
      (Printf.sprintf "Topology.with_fluid: link id %d outside [0, %d)" link
         (num_links t));
  if classes = [] then
    invalid_arg "Topology.with_fluid: at least one traffic class required";
  (match t.fluid.(link) with
  | Some _ ->
      invalid_arg
        (Printf.sprintf
           "Topology.with_fluid: link %d already carries fluid classes" link)
  | None -> ());
  (* Validate eagerly (at specification time, not instantiation). *)
  ignore (Aggregate.create ?buffer_share classes);
  let fluid = Array.copy t.fluid in
  fluid.(link) <- Some { f_share = buffer_share; f_classes = classes };
  { t with fluid }

let fluid_classes t i = t.fluid.(i)
let has_fluid t i = t.fluid.(i) <> None

let instantiate_fluid t i =
  Option.map
    (fun { f_share; f_classes } ->
      Aggregate.create ?buffer_share:f_share f_classes)
    (fluid_classes t i)

let fluid_flows t =
  Array.fold_left
    (fun acc -> function
      | None -> acc
      | Some { f_classes; _ } ->
          List.fold_left
            (fun acc c -> acc + Aggregate.cls_flows c)
            acc f_classes)
    0 t.fluid

let route t ~fwd ~rev =
  if fwd = [] then invalid_arg "Topology.route: forward path is empty";
  let n = num_links t in
  let check id =
    if id < 0 || id >= n then
      invalid_arg
        (Printf.sprintf "Topology.route: link id %d outside [0, %d)" id n)
  in
  List.iter check fwd;
  List.iter check rev;
  { fwd = Array.of_list fwd; rev = Array.of_list rev }

let chain_route t =
  if t.chain_hops = 0 then
    invalid_arg "Topology.chain_route: topology was not built by Topology.chain";
  let n = t.chain_hops in
  {
    fwd = Array.init n (fun i -> i);
    (* ACKs retrace the chain: the reverse link of the last forward hop
       comes first. Reverse link of forward hop [j] has id [n + j]. *)
    rev = Array.init n (fun i -> n + (n - 1 - i));
  }

let default_route t = if t.chain_hops > 0 then Some (chain_route t) else None

let hop_route t ~hop =
  if t.chain_hops = 0 then
    invalid_arg "Topology.hop_route: topology was not built by Topology.chain";
  if hop < 0 || hop >= t.chain_hops then
    invalid_arg
      (Printf.sprintf "Topology.hop_route: hop %d outside [0, %d)" hop
         t.chain_hops);
  { fwd = [| hop |]; rev = [| t.chain_hops + hop |] }

let route_fwd r = Array.copy r.fwd
let route_rev r = Array.copy r.rev
