(* In-process replay of one round of a schedule, timing each layer's
   public entry point from here: Protocol.parse, Rewrite.rewrite,
   Fourier_motzkin.qe, Volume_exact.volume, Db.apply_update, the first
   Exec read after each update, and Exec.volume_guarded's sampler.  Engine
   memos are dropped before every timed call that the server would make
   cold.  Prints one "name value" line per figure; a layer the workload's
   inputs never reach prints 0. *)

open Cqa_core
module P = Cqa_serve.Protocol
module FM = Cqa_linear.Fourier_motzkin
module SL = Cqa_linear.Semilinear
module Var = Cqa_logic.Var
module Rewrite = Cqa_analysis.Rewrite
module Planner = Cqa_analysis.Planner

let time f =
  let t0 = Sched.now_ns () in
  let v = f () in
  (v, float_of_int (Sched.now_ns () - t0) /. 1e3)

let cold () =
  FM.clear_qe_cache ();
  SL.clear_bbox_cache ();
  Cqa_linear.Simplex.clear_basis_cache ();
  Plan.clear_cache ();
  Rewrite.clear_memo ();
  Planner.clear_memo ()

(* running mean *)
type acc = { mutable n : int; mutable sum : float }

let acc () = { n = 0; sum = 0. }

let add a x =
  a.n <- a.n + 1;
  a.sum <- a.sum +. x

let mean a = if a.n = 0 then 0. else a.sum /. float_of_int a.n

let parse_exn line =
  match P.parse line with
  | Ok p -> p.P.req
  | Error (code, msg) -> failwith (Printf.sprintf "replay: %s: %s" code msg)

let region_of text =
  Eval.eval_set
    (Db.empty Cqa_logic.Schema.empty)
    (SL.default_vars 3)
    (Parser.formula_of_string text)

let run ~workload (s : Sched.schedule) =
  let plans = Array.init 64 Fun.id and buf = Buffer.create 256 in
  let texts steps ~k =
    List.concat_map Array.to_list steps
    |> List.mapi (fun i r -> (r, Sched.render buf ~plans ~n:(i + 1) ~k r))
  in
  let round = texts s.round ~k:5000 in
  (* Protocol.parse: every line of the round, enough times for ~20k parses *)
  let parse = acc () in
  let reps = max 1 (20_000 / max 1 (List.length round)) in
  for _ = 1 to reps do
    List.iter (fun (_, l) -> add parse (snd (time (fun () -> ignore (P.parse l))))) round
  done;
  let rewrite = acc () and fired = acc () and qe = acc () and vol = acc () in
  let sampler = acc () and samples = acc () in
  let update = acc () and refresh = acc () and pieces_max = ref 0 in
  (* the schema's shared database, built like the server's *)
  let db =
    match workload with
    | "update-mixed" -> (
        match P.schema_of_spec "R:3" with
        | Ok sc -> Db.empty sc
        | Error m -> failwith m)
    | _ -> Db.empty Cqa_logic.Schema.empty
  in
  let registered = Array.make 64 None in
  List.iter
    (fun (r, l) ->
      match (parse_exn l, r.Sched.tag) with
      | P.Update { rel; region; inserted = true; _ }, _ ->
          ignore (Db.apply_update db (Db.Insert (rel, region_of region)))
      | P.Plan_req { target = P.By_query { query; params; _ }; _ }, Some k ->
          registered.(k) <-
            Some
              (Planner.compile ~db ~params:(P.vars_of_spec params)
                 (Parser.formula_of_string query))
      | _ -> ())
    (texts s.setup ~k:0);
  (* which registered plans have been read since the latest update *)
  let fresh = Array.make 64 true in
  (* [warm] replays a line untimed, to bring the state where the server's is *)
  let replay_line ~warm l =
    let timed a f = if warm then f () else add a (snd (time f)) in
    match parse_exn l with
    | P.Vol { target = P.By_query { query; params; _ }; opts; _ } when not warm ->
        let f = Parser.formula_of_string query in
        cold ();
        let rw, us = time (fun () -> Rewrite.rewrite ~db f) in
        add rewrite us;
        add fired (float_of_int rw.Rewrite.fired);
        if params = [] then begin
          let budget = Option.value opts.P.budget ~default:Dispatch.default_budget in
          let p = Planner.compile ~db ~budget f in
          match (Plan.hint p, Plan.decision p) with
          | Some Dispatch.Exact_semilinear, Dispatch.Run_exact ->
              let lf = Eval.reduce_linear db Var.Map.empty f in
              cold ();
              timed qe (fun () -> ignore (FM.qe lf));
              let set = Eval.eval_set db (Plan.coords p) f in
              cold ();
              timed vol (fun () -> ignore (Volume_exact.volume set))
          | _ -> (
              let g, us =
                time (fun () ->
                    Exec.volume_guarded ~budget ?eps:opts.P.eps ?delta:opts.P.delta
                      ?seed:opts.P.seed p db)
              in
              match g.Volume_exact.engine with
              | Volume_exact.Approx_engine { sample_size } ->
                  add sampler us;
                  add samples (float_of_int sample_size)
              | Volume_exact.Exact_engine -> ())
        end
    | P.Update { rel; region; inserted; _ } ->
        let r = region_of region in
        let u = if inserted then Db.Insert (rel, r) else Db.Remove (rel, r) in
        timed update (fun () -> ignore (Db.apply_update db u));
        (match Db.as_semilinear db rel with
        | Some set ->
            pieces_max := max !pieces_max (SL.disjunct_count set);
            if not warm then begin
              cold ();
              timed vol (fun () -> ignore (Volume_exact.volume set))
            end
        | None -> ());
        Array.fill fresh 0 (Array.length fresh) true
    | P.Vol { target = P.By_id k; args; _ } when workload = "update-mixed" -> (
        (* By_id lines were rendered with plan id k for registration k *)
        match registered.(k) with
        | Some p ->
            let read () =
              if Array.length args = 0 then ignore (Exec.volume p db)
              else ignore (Exec.volume_at p db args)
            in
            if fresh.(k) then begin
              fresh.(k) <- false;
              timed refresh read
            end
            else read ()
        | None -> ())
    | _ -> ()
  in
  (* Updates leave state behind, so update-mixed replays the server's
     warm-up rounds first (untimed); elsewhere every timed call starts
     cold anyway. *)
  if workload = "update-mixed" then
    List.iter
      (Array.iter (fun q ->
           replay_line ~warm:true (Sched.render buf ~plans ~n:0 ~k:100 q)))
      s.warmup;
  List.iter (fun (_, l) -> replay_line ~warm:false l) round;
  let ns_per_membership =
    if samples.sum > 0. then sampler.sum *. 1e3 /. samples.sum else 0.
  in
  List.iter
    (fun (k, v) -> Printf.printf "%s %.6f\n" k v)
    [
      ("protocol.parse_us", mean parse);
      ("rewrite.us", mean rewrite);
      ("rewrite.fired_per_query", mean fired);
      ("fm.qe_us", mean qe);
      ("volume.exact_us", mean vol);
      ("db.update_us", mean update);
      ("db.pieces_max", float_of_int !pieces_max);
      ("exec.refresh_us", mean refresh);
      ("sampler.us", mean sampler);
      ("sampler.samples_per_req", mean samples);
      ("sampler.ns_per_membership", ns_per_membership);
    ]
