(** Shared, append-only string dictionary.

    All string attributes of one engine instance are encoded against a
    single pool so that equi-joins and cross-relation comparisons on string
    columns compare plain int codes. Codes are assigned in first-seen order,
    so they are not order-preserving: range predicates on strings are
    rejected upstream (none of the paper's workloads use them).

    A pool is appended to by exactly one handle, its owner ({!create}).
    {!freeze} hands out a read-only view of the owner's current prefix
    without copying a string: codes below the frozen length decode the
    same forever, and strings the owner appends later are invisible to it.
    A frozen handle that is asked to {!encode} a string outside its prefix
    first forks a private pool holding exactly that prefix and owns it
    from then on, so the parent pool never grows on its behalf.

    Concurrency: the owner's {!encode} of an already-known string and
    every {!decode} take no lock. A frozen handle's {!find} takes the
    pool's lock, which the owner also holds while inserting, so readers on
    other domains never race the owner's inserts. One handle is used by
    one domain at a time. *)

type t

val create : unit -> t
(** An empty pool and its owner handle. *)

val freeze : t -> t
(** A frozen handle on [t]'s current prefix: O(1), shares the pool. *)

val encode : t -> string -> int
(** Returns the existing code or assigns the next one. On a frozen
    handle, a string outside the prefix forks a private pool first. *)

val find : t -> string -> int option
(** Lookup without inserting; strings outside the handle's prefix are
    [None]. *)

val merge_into : into:t -> t -> int array
(** [merge_into ~into local] encodes every string of [local] into [into] in
    [local]-code order and returns the remap: local code [c] becomes [into]
    code [remap.(c)]. Because local codes are themselves first-seen order,
    folding per-chunk dictionaries into a shared one in chunk order assigns
    exactly the codes a sequential scan of the concatenated chunks would
    have — the keystone of the parallel ingest's determinism. *)

val decode : t -> int -> string
(** Raises [Invalid_argument] for a code outside the handle's prefix. *)

val size : t -> int
(** The number of codes this handle can decode. *)
