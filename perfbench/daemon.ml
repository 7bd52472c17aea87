(* The system under test as a child process: mqdp_serve on a loopback
   port. Every daemon this module starts is killed and reaped before the
   benchmark exits, whatever path it exits by. *)

type t = { pid : int; port : int }

let live : int list ref = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let () = at_exit (fun () -> List.iter reap !live)

(* An unused loopback port: bind to port 0 and read back what the kernel
   chose. The daemon only accepts an explicit port. *)
let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt s Unix.SO_REUSEADDR true;
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  Unix.close s;
  port

let spawn ~exe ~log args =
  let port = free_port () in
  let argv = Array.of_list ((exe :: "--port" :: string_of_int port :: args)) in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid = Unix.create_process exe argv null null err in
  Unix.close null;
  Unix.close err;
  live := pid :: !live;
  { pid; port }

(* Connect to the daemon, retrying while it is still starting up. *)
let connect ?(timeout = 30.) t =
  let deadline = Util.Timer.now () +. timeout in
  let rec go () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, t.port)) with
    | () ->
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN), _, _)
      when Util.Timer.now () < deadline ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ -> ()
      | _ -> failwith "mqdp_serve exited during start-up (see its log)");
      Unix.sleepf 0.00005;
      go ()
  in
  go ()

let kill t = reap t.pid

(* CPU seconds the daemon's threads have run, from /proc schedstat: the
   scheduler's run time, which leaves out time the host took the CPU
   away (steal). The kernel brings a running thread's figure up to date
   only every scheduler tick (4 ms at HZ=250), so the reading waits, up to a
   millisecond, for the daemon to block in its event loop, where the
   figure is exact. *)
let running t =
  match open_in (Printf.sprintf "/proc/%d/stat" t.pid) with
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    (match String.rindex_opt line ')' with
    | Some k when k + 2 < String.length line -> line.[k + 2] = 'R'
    | _ -> false)
  | exception Sys_error _ -> false

let cpu_s t =
  let rec settle n =
    if n > 0 && running t then begin
      Unix.sleepf 0.0001;
      settle (n - 1)
    end
  in
  settle 10;
  let dir = Printf.sprintf "/proc/%d/task" t.pid in
  Array.fold_left
    (fun acc tid ->
      match open_in (Printf.sprintf "%s/%s/schedstat" dir tid) with
      | ic ->
        let ns = try Scanf.sscanf (input_line ic) "%Ld" Int64.to_float with _ -> 0. in
        close_in ic;
        acc +. (ns /. 1e9)
      | exception Sys_error _ -> acc)
    0. (Sys.readdir dir)

(* Peak resident set, MiB, from a /proc status file. *)
let hwm_mb path =
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let vm_hwm_mb t = hwm_mb (Printf.sprintf "/proc/%d/status" t.pid)
let self_hwm_mb () = hwm_mb "/proc/self/status"
