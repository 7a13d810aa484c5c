(** Table registry of one engine instance. All tables share one string
    dictionary so string equi-joins compare int codes. *)

type t

val create : unit -> t

val of_dict : Lh_storage.Dict.t -> t
(** Empty catalog around an existing dictionary handle — the snapshot
    constructor: tables repointed to [dict] (see
    {!Lh_storage.Table.with_dict}) pass {!register}'s identity check. *)

val dict : t -> Lh_storage.Dict.t

val register : t -> Lh_storage.Table.t -> unit
(** Replaces any previous table of the same name. Raises [Failure] when the
    table was built against a different dictionary handle. *)

val remove : t -> string -> unit
(** Forget a name; no-op when absent. *)

val find : t -> string -> Lh_storage.Table.t option
val find_exn : t -> string -> Lh_storage.Table.t
val names : t -> string list

val tables : t -> Lh_storage.Table.t list
(** Every registered table, in {!names} (sorted) order — the
    deterministic enumeration the durable checkpoint writer snapshots. *)
