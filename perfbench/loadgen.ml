(* The load generator: one process, one thread, at most two connections
   (a publisher and a subscriber), multiplexed with select. Requests are
   pipelined on each connection; the daemon answers each connection in
   order, so the head of a connection's in-flight queue owns the next
   final ([<seq> OK] / [<seq> ERR]) line.

   Every request keeps the time it was due, the time it was sent and the
   time its final line arrived, so an open loop times requests from their
   due time and reports how late the generator itself ran. *)

type req = {
  idx : int;  (* position in the run's request log *)
  conn : int;
  verb : string;
  line : string;  (* as sent, sequence number included *)
  due : float;
  mutable sent : float;
  mutable recv : float;  (* nan until the final line arrives *)
  mutable body : string list;  (* non-final response lines, reversed *)
  mutable final : string;
  on_done : req -> unit;
}

type conn = {
  fd : Unix.file_descr;
  id : int;
  mutable partial : string;
  out : Buffer.t;
  mutable out_off : int;
  inflight : req Queue.t;
  mutable seq : int;
  mutable reads : int;
  mutable finals : int;
}

type t = {
  conns : conn array;
  mutable log : req list;  (* every request, newest first *)
  mutable count : int;
  mutable idle_sends : int list;  (* idx of requests sent with nothing in flight *)
  rbuf : Bytes.t;
}

exception Closed of int

let create fds =
  Array.iter Unix.set_nonblock fds;
  {
    conns =
      Array.mapi
        (fun id fd ->
          {
            fd;
            id;
            partial = "";
            out = Buffer.create 65536;
            out_off = 0;
            inflight = Queue.create ();
            seq = 0;
            reads = 0;
            finals = 0;
          })
        fds;
    log = [];
    count = 0;
    idle_sends = [];
    rbuf = Bytes.create 65536;
  }

let close t = Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns
let inflight t = Array.fold_left (fun n c -> n + Queue.length c.inflight) 0 t.conns
let conn_inflight t i = Queue.length t.conns.(i).inflight

(* Seed a connection's sequence space above a recovered watermark. *)
let set_seq t i s = t.conns.(i).seq <- s

let flush_conn c =
  let len = Buffer.length c.out - c.out_off in
  if len > 0 then begin
    let n =
      try Unix.write_substring c.fd (Buffer.contents c.out) c.out_off len with
      | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0
      | Unix.Unix_error (_, _, _) -> raise (Closed c.id)
    in
    c.out_off <- c.out_off + n;
    if c.out_off = Buffer.length c.out then begin
      Buffer.clear c.out;
      c.out_off <- 0
    end
  end

let no_op (_ : req) = ()

(* Queue [cmd] (without sequence number) on connection [i]; [seq0] sends
   a transport-level line ([HELLO]) whose answer carries sequence 0. *)
let send ?(due = nan) ?(on_done = no_op) ?(seq0 = false) t i cmd =
  let c = t.conns.(i) in
  let now = Util.Timer.now () in
  let line =
    if seq0 then cmd
    else begin
      c.seq <- c.seq + 1;
      Printf.sprintf "%d %s" c.seq cmd
    end
  in
  let verb = match String.index_opt cmd ' ' with Some k -> String.sub cmd 0 k | None -> cmd in
  let r =
    {
      idx = t.count;
      conn = i;
      verb;
      line;
      due = (if Float.is_nan due then now else due);
      sent = now;
      recv = nan;
      body = [];
      final = "";
      on_done;
    }
  in
  if inflight t = 0 then t.idle_sends <- r.idx :: t.idle_sends;
  t.count <- t.count + 1;
  t.log <- r :: t.log;
  Queue.push r c.inflight;
  Buffer.add_string c.out line;
  Buffer.add_char c.out '\n';
  flush_conn c;
  r

(* The second token of a response line decides whether it ends its
   request. *)
let is_final line =
  match String.index_opt line ' ' with
  | None -> false
  | Some k ->
    let rest = String.sub line (k + 1) (String.length line - k - 1) in
    let starts p = String.length rest >= String.length p && String.sub rest 0 (String.length p) = p in
    starts "OK" || starts "ERR"

let on_line c line now =
  if is_final line then begin
    match Queue.take_opt c.inflight with
    | None -> ()
    | Some r ->
      c.finals <- c.finals + 1;
      r.recv <- now;
      r.final <- line;
      r.body <- List.rev r.body;
      r.on_done r
  end
  else
    match Queue.peek_opt c.inflight with
    | Some r -> r.body <- line :: r.body
    | None -> ()

let read_conn t c =
  match Unix.read c.fd t.rbuf 0 (Bytes.length t.rbuf) with
  | 0 -> raise (Closed c.id)
  | n ->
    c.reads <- c.reads + 1;
    let now = Util.Timer.now () in
    let chunk = c.partial ^ Bytes.sub_string t.rbuf 0 n in
    let parts = String.split_on_char '\n' chunk in
    let rec go = function
      | [ last ] -> c.partial <- last
      | line :: rest ->
        on_line c line now;
        go rest
      | [] -> c.partial <- ""
    in
    go parts
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> raise (Closed c.id)

(* One select round, waiting at most [timeout] seconds. *)
let poll t ~timeout =
  let reads = Array.to_list (Array.map (fun c -> c.fd) t.conns) in
  let writes =
    Array.to_list t.conns
    |> List.filter (fun c -> Buffer.length c.out > c.out_off)
    |> List.map (fun c -> c.fd)
  in
  match Unix.select reads writes [] (Float.max 0. timeout) with
  | r, w, _ ->
    Array.iter
      (fun c ->
        if List.mem c.fd w then flush_conn c;
        if List.mem c.fd r then read_conn t c)
      t.conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Poll until [cond ()] holds or [limit] (absolute) passes; false on
   timeout. *)
let wait_until t ~limit cond =
  let rec go () =
    if cond () then true
    else
      let now = Util.Timer.now () in
      if now >= limit then false
      else begin
        poll t ~timeout:(Float.min 0.05 (limit -. now));
        go ()
      end
  in
  go ()

(* Send one request and wait for its answer (set-up and checks only). *)
let call ?(timeout = 60.) ?seq0 t i cmd =
  let r = send ?seq0 t i cmd in
  if not (wait_until t ~limit:(Util.Timer.now () +. timeout) (fun () -> not (Float.is_nan r.recv)))
  then failwith (Printf.sprintf "no answer to %S within %gs" r.line timeout);
  r

let requests t = List.rev t.log
let reads t = Array.fold_left (fun n c -> n + c.reads) 0 t.conns
let finals t = Array.fold_left (fun n c -> n + c.finals) 0 t.conns

(* Answered with [<seq> OK ...]. *)
let answered_ok r =
  (not (Float.is_nan r.recv))
  && match String.split_on_char ' ' r.final with _ :: "OK" :: _ -> true | _ -> false
