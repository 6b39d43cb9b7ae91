(** Template expansion: [(grid ENTRY ...)] × seed trials → concrete
    scenario instances.

    {v
    (grid ENTRY ...)
    ENTRY := (NAME VALUE ...)                       ; one name per value
           | ((NAME ...) (VALUE ...) ...)           ; one row per tuple
    v}

    A scenario file holds one [(scenario ...)] form; an optional
    [(grid ...)] clause lists entries whose [$NAME] references in the
    body are substituted with every combination of entry values
    (cartesian product, first entry varying slowest). A tuple entry
    binds all of its names from one row at a time, so its rows enter
    the product as one axis: [((bw rtt) (20 10) (50 30))] expands to
    two combinations, not four. Every row must have one value per
    name, a name may be bound only once across the grid, and every
    name must be referenced in the body. Each combination expands into
    [trials] instances whose ids — [NAME/k=v,.../tN], one [k=v] per
    bound name in entry order — are pure functions of the scenario
    name, bindings and trial index, and whose seeds derive from the
    id's MD5: a run's identity never depends on file ordering or
    sibling scenarios. *)

type template = {
  path : string;  (** source path (diagnostics only) *)
  grid : (string list * string list list) list;
      (** entries in declaration order: the names each binds, and one
          value row per combination (a plain entry binds one name) *)
  body : Sexp.t;  (** the scenario form, grid clause stripped *)
}

type instance = {
  id : string;  (** [NAME/COMBO/tN]; matrix-wide unique run id *)
  combo : string;  (** ["k=v,k2=v2"], or ["-"] for gridless scenarios *)
  trial : int;
  seed : int;  (** {!seed_of_id} of [id] *)
  spec : Spec.t;
}

val load_file : string -> (template, string) result
(** Parse one scenario file into a template. Fails on parse errors,
    multiple top-level forms, malformed grid entries (including a tuple
    row whose arity differs from its names), duplicate or unreferenced
    grid parameters, and combination counts over 10k. *)

val of_sexp : ?path:string -> Sexp.t -> (template, string) result

val combos : template -> (string * string) list list
(** All grid bindings in expansion order ([[[]]] when gridless). *)

val expand : template -> trials:int -> (instance list, string) result
(** Every combination × trial index, in combination-major order. *)

val seed_of_id : string -> int
(** Deterministic positive seed from an instance id (MD5-derived). *)

val load_dir :
  string -> trials:int -> ((string * instance list) list, string) result
(** Load and expand every [*.scn] file directly under a directory, in
    file-name order, paired with its path. Fails on a missing or empty
    directory, the first file {!load_file} or {!expand} rejects, and
    an instance id two files share. *)
