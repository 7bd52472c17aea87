(** Buffer writers shared by the checkpoint text formats ({!Feed}'s v2
    checkpoint, {!Profile.blob}). They append straight into a [Buffer.t]
    with no [Printf] and no intermediate strings, and produce exactly the
    bytes the formats have always had. *)

(** Decimal, as [string_of_int]. *)
val add_int : Buffer.t -> int -> unit

(** Each integer preceded by a space. *)
val add_ints : Buffer.t -> int list -> unit

(** The IEEE-754 bit pattern as 16 lowercase hex digits (exact
    round-trips). *)
val add_float : Buffer.t -> float -> unit

(** Ascending comma-separated labels, or ["-"] for the empty set. *)
val add_labels : Buffer.t -> Label_set.t -> unit

(** ["<id> <value> <labels>"]. *)
val add_post : Buffer.t -> Post.t -> unit

(** ["p <post>\n"]. *)
val add_post_line : Buffer.t -> Post.t -> unit
