(* Load generator and in-process layer replay for the end-to-end benchmark.

   [drive] spawns the real [cqa serve] binary as its own process, replays a
   schedule written by workloads.py over at most two connections from this
   single thread, and logs every timed request's send and receive times
   and the field of its answer that the checkers need.  It never judges
   an answer: run.py checks the log against closed forms.

   [replay] feeds the same schedule's query texts and updates to each
   layer's public entry point in this process, timing every call, for the
   per-layer ledger of a traced run.

   Usage:
     loadgen drive --cqa EXE --schedule FILE --socket PATH --seconds S
                   --setups N --setup-seconds T --rss-rounds R --log FILE
                   [--stats]
     loadgen replay --workload NAME --schedule FILE *)

open Sched
module Client = Cqa_serve.Client
module Server = Cqa_serve.Server

let now_ns = Sched.now_ns

(* ------------------------------------------------------------------ *)
(* Answers                                                             *)
(* ------------------------------------------------------------------ *)

(* Index just past the first occurrence of [sub] in [s], without
   allocating: this runs on every reply, between one step and the next. *)
let find_after s sub =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = if i + m > n then None else if matches i 0 then Some (i + m) else go (i + 1) in
  go 0

let is_ok resp = String.length resp >= 10 && String.sub resp 0 10 = {|{"ok":true|}

let string_field s key =
  match find_after s ("\"" ^ key ^ "\":\"") with
  | None -> None
  | Some i -> Some (String.sub s i (String.index_from s i '"' - i))

let int_field s key =
  match find_after s ("\"" ^ key ^ "\":") with
  | None -> None
  | Some i ->
      let j = ref i in
      while !j < String.length s && (s.[!j] = '-' || (s.[!j] >= '0' && s.[!j] <= '9')) do
        incr j
      done;
      int_of_string_opt (String.sub s i (!j - i))

(* The one field of a response the checkers need, tagged by kind:
   E:<p/q> exact volume, A:<p/q> sampled volume, V:<n> database version
   after a write, P:<id> registered plan, X:<code> error, ?:<line>. *)
let answer resp =
  if not (is_ok resp) then
    "X:" ^ Option.value (string_field resp "code") ~default:"no-code"
  else
    match string_field resp "op" with
    | Some "vol" -> (
        match string_field resp "vol" with
        | Some v ->
            if string_field resp "engine" = Some "approx" then "A:" ^ v else "E:" ^ v
        | None -> "?:" ^ resp)
    | Some ("insert" | "remove") -> (
        match int_field resp "version" with
        | Some v -> "V:" ^ string_of_int v
        | None -> "?:" ^ resp)
    | Some "plan" -> (
        match int_field resp "plan" with
        | Some p -> "P:" ^ string_of_int p
        | None -> "?:" ^ resp)
    | _ -> "?:" ^ resp

(* ------------------------------------------------------------------ *)
(* drive                                                               *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; links : Client.t array }

(* The server inherits this process's environment minus the knobs that
   would change its engine or pool configuration. *)
let server_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
         not
           (List.exists
              (fun p -> String.length kv > String.length p
                        && String.sub kv 0 (String.length p) = p)
              [ "CQA_KERNEL="; "CQA_DOMAINS="; "CQA_PLAN_CACHE_CAP=" ]))
  |> Array.of_list

(* The server alive right now, killed at exit if this process dies with it
   still running, so an error never leaves a server behind. *)
let live_server = ref None

let () =
  at_exit (fun () ->
      match !live_server with
      | Some pid -> (
          try
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid)
          with Unix.Unix_error _ -> ())
      | None -> ())

let spawn ~cqa ~socket ~stats ~nconns =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let args =
    [ cqa; "serve"; "--socket"; socket; "--domains"; "1" ]
    @ if stats then [ "--stats=json" ] else []
  in
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process_env cqa (Array.of_list args) (server_env ()) null_in
      null_out null_out
  in
  live_server := Some pid;
  Unix.close null_in;
  Unix.close null_out;
  let addr = Server.Unix_path socket in
  let deadline = now_ns () + 30_000_000_000 in
  let rec connect () =
    match Client.connect addr with
    | c -> c
    | exception Unix.Unix_error _ when now_ns () < deadline ->
        Unix.sleepf 0.0005;
        connect ()
  in
  { pid; links = Array.init nconns (fun _ -> connect ()) }

let shutdown srv =
  ignore (Client.request srv.links.(0) {|{"op":"shutdown"}|});
  Array.iter Client.close srv.links;
  ignore (Unix.waitpid [] srv.pid);
  live_server := None

let vm_hwm_kb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
    | _ -> go ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* CPU time the server's threads have run, in ns, from the scheduler's own
   accounts ([/proc/<pid>/task/*/schedstat]).  Time the host took the CPU
   away (steal) and time spent waiting to run are not in it. *)
let cpu_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match open_in (Printf.sprintf "%s/%s/schedstat" dir tid) with
      | ic ->
          let ns = Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
              Scanf.sscanf (input_line ic) "%d" Fun.id)
          in
          acc + ns
      | exception Sys_error _ -> acc)
    0 (Sys.readdir dir)

(* Request numbering for $N runs over the server's whole life, so no
   template ever repeats its text on one server. *)
type ctx = { plans : int array; mutable nreq : int; buf : Buffer.t }

let render ctx ~k r =
  let s = Sched.render ctx.buf ~plans:ctx.plans ~n:ctx.nreq ~k r in
  ctx.nreq <- ctx.nreq + 1;
  s

(* One step: send every request, then read every reply.  With at most one
   request per connection, replies are read in send order.  A connection
   that carries several requests of the step gets them in one write, each
   tagged with its position in the step as its "id": the server may answer
   them in another order (a flush groups jobs by plan), so replies are
   matched back by that id and timed from the step's send. *)
let run_step srv ctx ~k step on_reply =
  let n = Array.length step in
  let per_conn = Array.make (Array.length srv.links) 0 in
  Array.iter (fun r -> per_conn.(r.conn) <- per_conn.(r.conn) + 1) step;
  if Array.for_all (fun c -> c <= 1) per_conn then begin
    let sent = Array.make n 0 in
    Array.iteri
      (fun i r ->
        let text = render ctx ~k r in
        sent.(i) <- now_ns ();
        Client.send_line srv.links.(r.conn) text)
      step;
    Array.iteri
      (fun i r ->
        let resp = Client.recv_line srv.links.(r.conn) in
        on_reply r sent.(i) (now_ns ()) resp)
      step
  end
  else begin
    let out = Array.map (fun _ -> Buffer.create 2048) srv.links in
    Array.iteri
      (fun i r ->
        let text = render ctx ~k r in
        let b = out.(r.conn) in
        Printf.bprintf b "{\"id\":%d," i;
        Buffer.add_substring b text 1 (String.length text - 1);
        Buffer.add_char b '\n')
      step;
    let sent = now_ns () in
    Array.iteri
      (fun c b -> if Buffer.length b > 0 then Client.send_raw srv.links.(c) (Buffer.contents b))
      out;
    let got = Array.make n ("", 0) in
    Array.iteri
      (fun c count ->
        for _ = 1 to count do
          let resp = Client.recv_line srv.links.(c) in
          let at = now_ns () in
          match int_field resp "id" with
          | Some i when i >= 0 && i < n && step.(i).conn = c -> got.(i) <- (resp, at)
          | _ -> failwith ("reply without the id of a request sent: " ^ resp)
        done)
      per_conn;
    Array.iteri (fun i r -> let resp, at = got.(i) in on_reply r sent at resp) step
  end

let register ctx r resp =
  match r.tag with
  | None -> ()
  | Some k -> (
      match int_field resp "plan" with
      | Some id when is_ok resp ->
          ctx.plans.(k) <- id
      | _ -> failwith ("plan registration failed: " ^ resp))

let set_up ~cqa ~socket ~stats sched =
  let t0 = now_ns () in
  let srv = spawn ~cqa ~socket ~stats ~nconns:sched.conns in
  let ctx = { plans = Array.make 64 (-1); nreq = 1; buf = Buffer.create 256 } in
  List.iter
    (fun step ->
      run_step srv ctx ~k:0 step (fun r _ _ resp ->
          if r.tag <> None then register ctx r resp
          else if not (is_ok resp) then
            failwith ("set-up request failed: " ^ resp)))
    sched.setup;
  List.iter (fun step -> run_step srv ctx ~k:100 step (fun _ _ _ _ -> ())) sched.warmup;
  (srv, ctx, float_of_int (now_ns () - t0) /. 1e9)

(* Set up [setups] times, and more (up to 25) until [setup_seconds] have
   gone by, so that short set-ups still give a median over a spell of
   work; the timed phase runs on the last server.  With more than one
   set-up asked for, as many are done again after the timed phase, so the
   median spans the whole run rather than one spell of the machine. *)
let drive ~cqa ~schedule ~socket ~seconds ~setups ~setup_seconds ~rss_rounds ~log ~stats =
  let sched = load_schedule schedule in
  let setup_s = ref [] in
  let rec setups_from i total =
    let srv, ctx, dt = set_up ~cqa ~socket ~stats sched in
    setup_s := dt :: !setup_s;
    if i < setups || (total +. dt < setup_seconds && i < 25) then begin
      shutdown srv;
      setups_from (i + 1) (total +. dt)
    end
    else (srv, ctx)
  in
  let srv, ctx = setups_from 1 0. in
  let stats_req = {|{"op":"stats"}|} in
  let stats_before = if stats then Client.request srv.links.(0) stats_req else "null" in
  let oc = open_out log in
  let cpu_start = cpu_ns srv.pid in
  let t_start = now_ns () in
  let limit = t_start + int_of_float (seconds *. 1e9) in
  let rounds = ref 0 and rss = ref 0 in
  while now_ns () < limit do
    List.iter
      (fun step ->
        run_step srv ctx ~k:(1000 + !rounds) step (fun _ s r resp ->
            Printf.fprintf oc "%d %d %s\n" (s - t_start) (r - t_start) (answer resp)))
      sched.round;
    incr rounds;
    (* peak memory after a fixed amount of work: over the whole timed
       phase it would grow with the number of rounds a run gets done, so
       with the speed of the host *)
    if !rounds = rss_rounds then rss := vm_hwm_kb srv.pid
  done;
  let cpu = cpu_ns srv.pid - cpu_start in
  close_out oc;
  let stats_after = if stats then Client.request srv.links.(0) stats_req else "null" in
  (* the round-trip floor, measured after the timed phase and its stats *)
  let pings =
    if stats then
      List.init 2000 (fun _ ->
          let t = now_ns () in
          ignore (Client.request srv.links.(0) {|{"op":"ping"}|});
          now_ns () - t)
    else []
  in
  let rss = if !rss = 0 then vm_hwm_kb srv.pid else !rss in
  shutdown srv;
  if setups > 1 then shutdown (fst (setups_from 1 0.));
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  Printf.printf "setup_s %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.6f") !setup_s));
  Printf.printf "rss_kb %d\n" rss;
  Printf.printf "server_cpu_ns %d\n" cpu;
  Printf.printf "ping_ns %s\n" (String.concat " " (List.map string_of_int pings));
  Printf.printf "stats_before %s\nstats_after %s\n" stats_before stats_after

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | "--stats" :: rest -> opts (("stats", "1") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | x :: _ -> failwith ("unexpected argument " ^ x)
  in
  match args with
  | "drive" :: rest ->
      let o = opts [] rest in
      let get k =
        match List.assoc_opt k o with
        | Some v -> v
        | None -> failwith ("missing --" ^ k)
      in
      drive ~cqa:(get "cqa") ~schedule:(get "schedule") ~socket:(get "socket")
        ~seconds:(float_of_string (get "seconds"))
        ~setups:(int_of_string (get "setups"))
        ~setup_seconds:(float_of_string (get "setup-seconds"))
        ~rss_rounds:(int_of_string (get "rss-rounds")) ~log:(get "log")
        ~stats:(List.mem_assoc "stats" o)
  | "replay" :: rest ->
      let o = opts [] rest in
      Replay.run ~workload:(List.assoc "workload" o)
        (load_schedule (List.assoc "schedule" o))
  | _ ->
      prerr_endline "usage: loadgen (drive|replay) ...";
      exit 2
