(** Columnar tables.

    Each attribute is one buffer, loadable in isolation — the physical side
    of attribute elimination (§IV-A). Int and date and string attributes are
    stored as int codes ([Icol]); float attributes as raw floats ([Fcol]).
    Integer keys use their own value as code (order-preserving); strings go
    through the engine's shared {!Dict}. *)

type column = Icol of int array | Fcol of float array

type t = private {
  id : int;
      (** the table's version: unique per {!create}, kept by {!with_dict}.
          Caches of derived structures (tries, dense views) key on it. *)
  name : string;
  schema : Schema.t;
  nrows : int;
  cols : column array;
  dict : Dict.t;
}

val create : name:string -> schema:Schema.t -> dict:Dict.t -> column array -> t
(** Raises [Failure] when column count/length or representation does not
    match the schema, or when a key column contains a negative code. *)

val of_rows : name:string -> schema:Schema.t -> dict:Dict.t -> Dtype.value list list -> t
(** Convenience constructor for tests and small inputs. *)

val with_dict : t -> dict:Dict.t -> t
(** Same columns and version, different dictionary handle. Only
    meaningful when [dict] decodes this table's codes the same way (e.g. a
    {!Dict.freeze} of the original's); used to freeze tables into
    snapshots. *)

val load_csv :
  name:string -> schema:Schema.t -> dict:Dict.t -> ?domains:int -> ?sep:char -> string -> t
(** Ingest a delimited file; one field per schema column, in order.

    With [domains > 1] the file's lines are parsed in parallel chunks, each
    against a private {!Dict}; the per-chunk dictionaries fold into [dict]
    in chunk order (see {!Dict.merge_into}), so the loaded table — codes
    included — is identical for every [domains] value. *)

val icol : t -> int -> int array
(** The int-code buffer of a column; raises [Failure] on a float column. *)

val fcol : t -> int -> float array

val number : t -> int -> int -> float
(** [number t col row]: the numeric value of an int/float/date cell (string
    cells raise). *)

val code : t -> int -> int -> int
(** [code t col row]: the int code of an int/date/string cell. *)

val value : t -> row:int -> col:int -> Dtype.value
(** Fully decoded cell value. *)

val encode_const : t -> int -> Dtype.value -> int option
(** [encode_const t col v] is the code a constant would have in column
    [col]: unknown strings yield [None] (they match nothing). Raises
    [Failure] on type mismatch or float columns. *)

val to_rows : t -> Dtype.value list list
val pp_row : Format.formatter -> t -> int -> unit
