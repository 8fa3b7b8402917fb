package cluster

// SetInstance re-registers a KNOWN instance id at a new URL, the way a
// replacement process behind /v1/membership/add does: the id keeps its
// ring position and starts Healthy. An id that is not a member is
// refused (and logged). Tests use it to move an instance's address
// without the migration an add of a new id performs.
func (rt *Router) SetInstance(id, baseURL string) {
	if !rt.members.reregister(id, baseURL) {
		rt.log.Warn("set instance: not a member", "instance", id)
		return
	}
	rt.observe(id, sigAdmits, "path", "/v1/membership/add")
}
