from repro.m import Walker, dispatch, used

used()
dispatch()
Walker()
