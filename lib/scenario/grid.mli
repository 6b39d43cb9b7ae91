(** Template expansion: [(grid (NAME VALUE ...) ...)] × seed trials →
    concrete scenario instances.

    A scenario file holds one [(scenario ...)] form; an optional
    [(grid ...)] clause lists parameters whose [$NAME] references in
    the body are substituted with every combination of values
    (cartesian product, first parameter varying slowest). Each
    combination expands into [trials] instances whose ids —
    [NAME/k=v,.../tN] — are pure functions of the scenario name,
    bindings and trial index, and whose seeds derive from the id's MD5:
    a run's identity never depends on file ordering or sibling
    scenarios. *)

type template = {
  path : string;  (** source path (diagnostics only) *)
  grid : (string * string list) list;  (** declaration order *)
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
    multiple top-level forms, malformed grid entries, duplicate or
    unreferenced grid parameters, and combination counts over 10k. *)

val of_sexp : ?path:string -> Sexp.t -> (template, string) result

val combos : template -> (string * string) list list
(** All grid bindings in expansion order ([[[]]] when gridless). *)

val combo_id : (string * string) list -> string

val instantiate : template -> (string * string) list -> (Spec.t, string) result
(** Substitute one combination and parse/validate the resulting spec. *)

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
