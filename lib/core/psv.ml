module Expr = Ta.Expr
module Clockcons = Ta.Clockcons
module Model = Ta.Model
module Compiled = Ta.Compiled
module Bound = Zone.Bound
module Dbm = Zone.Dbm
module Monitor = Mc.Monitor
module Explorer = Mc.Explorer
module Runctl = Mc.Runctl
module Query = Mc.Query
module Store = Store
module Qcache = Analysis.Qcache
module Scheme = Scheme
module Pim = Transform.Pim
module Transform = Transform
module Bounds = Analysis.Bounds
module Constraints = Analysis.Constraints
module Sim = Sim
module Gpca = Gpca
module Xta = Xta
module Codegen = Codegen

let verify_response ?limit ?ctl net ~trigger ~response ~bound =
  (Query.eval ?ctl ?limit net
     (Query.Bounded_response { trigger; response; bound }))
    .Query.res_outcome

let max_delay = Query.max_delay

let transform = Transform.psm_of_pim
