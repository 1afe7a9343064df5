include Wafl_sim.Metrics
