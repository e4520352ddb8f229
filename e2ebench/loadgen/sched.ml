(* Schedules written by workloads.py: a set-up section, a warm-up section
   and one round of steps, each step a list of request templates (one per
   connection at most).  Templates are split at their placeholders once,
   at load time: $P<k> is the plan id set-up registration k returned, $N
   the request's 1-based index on the server, $K an integer new in every
   round. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type part = Lit of string | Plan of int | Nreq | Kround

type req = { conn : int; tag : int option; parts : part list }

type schedule = {
  conns : int;
  setup : req array list;
  warmup : req array list;
  round : req array list;
}

let split_template s =
  let n = String.length s in
  let parts = ref [] and lit = Buffer.create 64 in
  let flush () =
    if Buffer.length lit > 0 then begin
      parts := Lit (Buffer.contents lit) :: !parts;
      Buffer.clear lit
    end
  in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '$' && !i + 1 < n then begin
      flush ();
      match s.[!i + 1] with
      | 'N' ->
          parts := Nreq :: !parts;
          i := !i + 2
      | 'K' ->
          parts := Kround :: !parts;
          i := !i + 2
      | 'P' ->
          let j = ref (!i + 2) in
          while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
          parts := Plan (int_of_string (String.sub s (!i + 2) (!j - !i - 2))) :: !parts;
          i := !j
      | _ ->
          Buffer.add_char lit '$';
          incr i
    end
    else begin
      Buffer.add_char lit s.[!i];
      incr i
    end
  done;
  flush ();
  List.rev !parts

let load_schedule path =
  let ic = open_in path in
  let conns = ref 1 in
  let setup = ref [] and warmup = ref [] and round = ref [] in
  let section = ref setup and step = ref [] in
  let end_step () =
    if !step <> [] then begin
      !section := Array.of_list (List.rev !step) :: !(!section);
      step := []
    end
  in
  (try
     while true do
       let l = input_line ic in
       match String.index_opt l ' ' with
       | _ when l = "step" -> end_step ()
       | _ when l = "setup" -> end_step (); section := setup
       | _ when l = "warmup" -> end_step (); section := warmup
       | _ when l = "round" -> end_step (); section := round
       | _ when l = "end" -> end_step ()
       | Some i when String.sub l 0 i = "conns" ->
           conns := int_of_string (String.sub l (i + 1) (String.length l - i - 1))
       | Some i ->
           let j = String.index_from l (i + 1) ' ' in
           let tag = String.sub l (i + 1) (j - i - 1) in
           let text = String.sub l (j + 1) (String.length l - j - 1) in
           step :=
             {
               conn = int_of_string (String.sub l 0 i);
               tag =
                 (if tag = "-" then None
                  else Some (int_of_string (String.sub tag 1 (String.length tag - 1))));
               parts = split_template text;
             }
             :: !step
       | None -> failwith ("schedule: bad line " ^ l)
     done
   with End_of_file -> close_in ic);
  {
    conns = !conns;
    setup = List.rev !setup;
    warmup = List.rev !warmup;
    round = List.rev !round;
  }


(* Fill a template in: [plans] maps registration numbers to plan ids. *)
let render buf ~plans ~n ~k r =
  Buffer.clear buf;
  List.iter
    (function
      | Lit s -> Buffer.add_string buf s
      | Plan i -> Buffer.add_string buf (string_of_int plans.(i))
      | Nreq -> Buffer.add_string buf (string_of_int n)
      | Kround -> Buffer.add_string buf (string_of_int k))
    r.parts;
  Buffer.contents buf
