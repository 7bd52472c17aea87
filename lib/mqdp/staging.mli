(** A sorted ring of staged posts: {!Feed}'s reorder buffer.

    Posts are kept in ascending (value, id) order ({!Post.compare_by_value})
    in a circular array. An arrival no older than the newest staged post
    appends at the tail in O(1); a late one shifts the newer posts one slot
    right. The minimum is popped from the head in O(1). With unique ids,
    (value, id) is a strict order, so the release order equals a min-heap's.

    An empty ring allocates nothing beyond its record until the first
    {!push}. *)

type t

val create : unit -> t
val length : t -> int
val push : t -> Post.t -> unit

(** [pop t] removes and returns the minimum. Raises [Invalid_argument]
    when empty. *)
val pop : t -> Post.t

(** The staged posts, ascending. *)
val to_list : t -> Post.t list
